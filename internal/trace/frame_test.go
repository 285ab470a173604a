package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/oocsb/ibp/internal/faultio"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payloads := [][]byte{nil, {}, []byte("hello"), bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		if err := fw.WriteFrame(uint64(16+i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 0)
	for i, p := range payloads {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != uint64(16+i) {
			t.Fatalf("frame %d: type %d, want %d", i, f.Type, 16+i)
		}
		if !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: payload %q, want %q", i, f.Payload, p)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

func TestFrameReaderRejectsCorruption(t *testing.T) {
	mk := func() []byte {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		fw.WriteFrame(17, []byte("payload bytes"))
		fw.Flush()
		return buf.Bytes()
	}
	// Flip every byte position in turn; each must surface as ErrCorrupt,
	// never a panic or silent acceptance.
	clean := mk()
	for off := range clean {
		r := faultio.FlipBit(bytes.NewReader(mk()), int64(off), 0x40)
		fr := NewFrameReader(r, 0)
		f, err := fr.Next()
		if err == nil && bytes.Equal(f.Payload, []byte("payload bytes")) && f.Type == 17 {
			t.Fatalf("offset %d: corrupted frame decoded as clean", off)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("offset %d: error %v does not match ErrCorrupt", off, err)
		}
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(17, []byte("some payload"))
	fw.Flush()
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		fr := NewFrameReader(faultio.TruncateAfter(bytes.NewReader(full), int64(n)), 0)
		_, err := fr.Next()
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: want ErrCorrupt, got %v", n, err)
		}
	}
}

func TestFrameReaderPayloadLimit(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.WriteFrame(17, make([]byte, 512))
	fw.Flush()
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()), 256)
	if _, err := fr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized payload: want ErrCorrupt, got %v", err)
	}
	fr = NewFrameReader(bytes.NewReader(buf.Bytes()), 512)
	if _, err := fr.Next(); err != nil {
		t.Fatalf("payload at the limit should decode: %v", err)
	}
}

func TestRecordsPayloadRoundTrip(t *testing.T) {
	tr := genTrace(300)
	payload := AppendRecords(nil, tr)
	back, err := decodeChunk(payload, len(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr) {
		t.Fatalf("decoded %d records, want %d", len(back), len(tr))
	}
	for i := range tr {
		if back[i] != tr[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], tr[i])
		}
	}
	// Chunks are self-delimiting: delta state resets, so a chunk decoded in
	// isolation equals the same records decoded mid-trace.
	if _, err := decodeChunk(payload, len(tr)-1); err == nil {
		t.Fatal("over-limit record count accepted")
	}
	if _, err := decodeChunk(append(payload, 0x00), len(tr)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := decodeChunk(payload[:len(payload)-1], len(tr)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestFrameWriterZeroAllocs pins the frame write path at zero allocations
// per frame: every records frame a serve client sends, and every frame the
// router forwards to a backend, goes through it.
func TestFrameWriterZeroAllocs(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	for _, size := range []int{40, 10 << 10} {
		payload := make([]byte, size)
		write := func() {
			if err := fw.WriteFrame(17, payload); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, write); avg != 0 {
			t.Fatalf("writing a %d-byte frame allocates %.1f times, want 0", size, avg)
		}
	}
}
