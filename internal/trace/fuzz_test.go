package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeeds returns representative v2 encodings, a v1 stream (count plus
// records after a version-1 preamble) the readers must refuse, and hand-built
// malformed prefixes.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	sample := Trace{
		{PC: 0x1000, Target: 0x2000, Kind: VirtualCall, Gap: 3},
		{PC: 0x1004, Target: 0x3000, Kind: Return, Gap: 1},
	}
	v1 := append([]byte(magic+"\x01"), AppendRecords(nil, sample)...)
	var v2, big bytes.Buffer
	if err := Write(&v2, sample); err != nil {
		f.Fatal(err)
	}
	// A multi-chunk v2 stream so the fuzzer can explore chunk boundaries.
	if err := Write(&big, genTrace(chunkRecords+5)); err != nil {
		f.Fatal(err)
	}
	return [][]byte{
		v1,
		v2.Bytes(),
		big.Bytes(),
		[]byte("IBPT"),
		[]byte("IBPT\x01\x00"),
		[]byte("IBPT\x02"),
		[]byte("IBPT\x02\x03\x00"), // bare end section, missing checksum
		{},
	}
}

// FuzzRead checks that the trace decoders never panic, that anything the
// strict decoder accepts re-encodes to a semantically identical trace, and
// that the lenient decoder's salvage obeys the same invariant.
func FuzzRead(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	roundTrip := func(t *testing.T, tr Trace, what string) {
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("re-encode of %s failed: %v", what, err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", what, err)
		}
		if len(back) != len(tr) {
			t.Fatalf("%s round trip length %d != %d", what, len(back), len(tr))
		}
		for i := range tr {
			if back[i] != tr[i] {
				t.Fatalf("%s record %d: %+v != %+v", what, i, back[i], tr[i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Lenient mode must never panic, and whatever it salvages must be
		// a valid trace that re-encodes cleanly — even when it also
		// reports corruption.
		salvaged, lerr := ReadLenient(bytes.NewReader(data))
		if lerr != nil && !errors.Is(lerr, ErrCorrupt) {
			t.Fatalf("lenient error is not ErrCorrupt: %v", lerr)
		}
		if salvaged != nil {
			roundTrip(t, salvaged, "salvaged trace")
		}

		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Strict acceptance implies lenient agreement.
		if lerr != nil {
			t.Fatalf("strict accepted what lenient flagged: %v", lerr)
		}
		if len(salvaged) != len(tr) {
			t.Fatalf("lenient decoded %d records, strict %d", len(salvaged), len(tr))
		}
		roundTrip(t, tr, "accepted trace")
	})
}

// FuzzWireFrame drives the exported wire-frame decode path — the framing the
// network prediction service (internal/serve) reads straight off untrusted
// sockets — over arbitrary bytes: the frame scanner and the records-payload
// codec must never panic, every accepted frame must be ErrCorrupt-clean, and
// every accepted records payload must re-encode to identical bytes.
func FuzzWireFrame(f *testing.F) {
	// Clean frame streams (empty payload, records payload, several frames)
	// plus damaged prefixes.
	sample := genTrace(64)
	var clean bytes.Buffer
	fw := NewFrameWriter(&clean)
	fw.WriteFrame(16, nil)
	fw.WriteFrame(17, AppendRecords(nil, sample))
	fw.WriteFrame(18, []byte(`{"benchmark":"gcc"}`))
	fw.Flush()
	f.Add(clean.Bytes())
	f.Add(AppendRecords(nil, sample))
	f.Add([]byte{0x11, 0x01, 0x00})
	f.Add([]byte{})
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		for {
			frame, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("frame error is not ErrCorrupt: %v", err)
				}
				break
			}
			// Whatever the payload, decoding it as records must not panic,
			// and an accepted decode must survive a re-encode/decode cycle
			// unchanged (varints may be non-canonical on the wire, so byte
			// identity is not required — record identity is).
			recs, derr := decodeChunk(frame.Payload, 4096)

			// Cross-check the in-place iterator against the batch decode:
			// walking the same payload one record at a time must yield the
			// same records and the same typed verdict (decodeChunk runs on
			// NextBatch, so this pins Next and NextBatch to each other too).
			var itRecs Trace
			it, itErr := NewRecordIter(frame.Payload, 4096)
			if itErr == nil {
				for {
					r, ok := it.Next()
					if !ok {
						break
					}
					itRecs = append(itRecs, r)
				}
				itErr = it.Err()
			}
			if (derr == nil) != (itErr == nil) {
				t.Fatalf("iterator and decodeChunk disagree: %v vs %v", itErr, derr)
			}
			if derr != nil {
				if errors.Is(derr, ErrBadFormat) != errors.Is(itErr, ErrBadFormat) ||
					errors.Is(derr, io.ErrUnexpectedEOF) != errors.Is(itErr, io.ErrUnexpectedEOF) {
					t.Fatalf("iterator and decodeChunk error types disagree: %v vs %v", itErr, derr)
				}
				continue
			}
			if len(itRecs) != len(recs) {
				t.Fatalf("iterator decoded %d records, decodeChunk %d", len(itRecs), len(recs))
			}
			for i := range recs {
				if itRecs[i] != recs[i] {
					t.Fatalf("iterator record %d: %+v != %+v", i, itRecs[i], recs[i])
				}
			}
			back, rerr := decodeChunk(AppendRecords(nil, recs), 4096)
			if rerr != nil {
				t.Fatalf("re-encoded records failed to decode: %v", rerr)
			}
			if len(back) != len(recs) {
				t.Fatalf("round trip decoded %d records, want %d", len(back), len(recs))
			}
			for i := range recs {
				if back[i] != recs[i] {
					t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
				}
			}
		}
	})
}
