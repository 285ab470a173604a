package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"github.com/oocsb/ibp/internal/faultio"
)

// genTrace builds a deterministic synthetic trace of n records.
func genTrace(n int) Trace {
	rng := rand.New(rand.NewSource(42))
	out := make(Trace, 0, n)
	pc, tgt := uint32(0x1000), uint32(0x8000)
	for i := 0; i < n; i++ {
		pc += uint32(rng.Intn(64)) * 4
		tgt += uint32(rng.Intn(256)) * 4
		out = append(out, Record{
			PC:     pc,
			Target: tgt,
			Kind:   Kind(rng.Intn(int(numKinds))),
			Gap:    uint32(1 + rng.Intn(100)),
		})
	}
	return out
}

func encode(t *testing.T, tr Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func mustEqual(t *testing.T, got, want Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestV2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, chunkRecords - 1, chunkRecords, chunkRecords + 1, 3*chunkRecords + 17} {
		tr := genTrace(n)
		data := encode(t, tr)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: Read: %v", n, err)
		}
		mustEqual(t, got, tr)
		// Lenient mode must agree on clean streams.
		got, err = ReadLenient(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: ReadLenient: %v", n, err)
		}
		mustEqual(t, got, tr)
	}
}

// TestV2BitFlipStrictVsLenient flips one bit at every offset of a small v2
// stream: strict mode must reject the change or decode the identical trace
// (flips in skippable regions cannot occur — every byte is covered by a
// checksum, so any flip that still parses must parse to the same records
// only if it was... it must simply never yield different records).
func TestV2BitFlipStrict(t *testing.T) {
	tr := genTrace(300)
	data := encode(t, tr)
	for off := 0; off < len(data); off++ {
		flipped := bytes.Clone(data)
		flipped[off] ^= 0x04
		got, err := Read(bytes.NewReader(flipped))
		if err == nil {
			// The only acceptable silent outcome is a flip with no
			// semantic effect; with CRC32 over every frame there is none,
			// but guard against decoder bugs by requiring identity.
			mustEqual(t, got, tr)
		}
	}
}

func TestV2BitFlipLenientSalvagesPrefix(t *testing.T) {
	tr := genTrace(3*chunkRecords + 100)
	data := encode(t, tr)
	// Flip a bit roughly in the middle of the stream (inside chunk 2 of 4).
	off := len(data) / 2
	flipped := bytes.Clone(data)
	flipped[off] ^= 0x40

	if _, err := Read(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict Read of flipped stream: err = %v, want ErrCorrupt", err)
	}

	got, err := ReadLenient(bytes.NewReader(flipped))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadLenient err = %v, want ErrCorrupt", err)
	}
	var cerr *CorruptError
	if !errors.As(err, &cerr) {
		t.Fatalf("err %T is not *CorruptError", err)
	}
	if cerr.Records != len(got) {
		t.Errorf("CorruptError.Records = %d, salvaged %d", cerr.Records, len(got))
	}
	// The salvage must be a whole-chunk prefix of the original.
	if len(got) == 0 || len(got)%chunkRecords != 0 || len(got) >= len(tr) {
		t.Fatalf("salvaged %d records from %d (chunk %d)", len(got), len(tr), chunkRecords)
	}
	mustEqual(t, got, tr[:len(got)])
}

func TestV2TruncationSalvage(t *testing.T) {
	tr := genTrace(2*chunkRecords + 50)
	data := encode(t, tr)
	for _, cut := range []int{len(data) - 1, len(data) / 2, len(data) / 4} {
		r := faultio.TruncateAfter(bytes.NewReader(data), int64(cut))
		got, err := ReadLenient(r)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
		}
		mustEqual(t, got, tr[:len(got)])
		// Strict mode must reject outright.
		if _, err := Read(faultio.TruncateAfter(bytes.NewReader(data), int64(cut))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: strict err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestV2ReadErrorMidStream(t *testing.T) {
	tr := genTrace(chunkRecords + 10)
	data := encode(t, tr)
	boom := errors.New("disk on fire")
	got, err := ReadLenient(faultio.ErrAfter(bytes.NewReader(data), int64(len(data)/2), boom))
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrCorrupt wrapping boom", err)
	}
	mustEqual(t, got, tr[:len(got)])
}

// TestV2SalvageReencodes: the lenient-mode invariant — whatever is salvaged
// must itself round-trip through the encoder.
func TestV2SalvageReencodes(t *testing.T) {
	tr := genTrace(2 * chunkRecords)
	data := encode(t, tr)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		flipped := bytes.Clone(data)
		flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		got, err := ReadLenient(bytes.NewReader(flipped))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: unexpected error type %v", trial, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatalf("trial %d: salvage does not re-encode: %v", trial, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: salvage does not re-decode: %v", trial, err)
		}
		mustEqual(t, back, got)
	}
}

func TestV2ShortWriteSurfaces(t *testing.T) {
	// bufio must surface a destination that under-reports writes; Write
	// must not silently succeed.
	tr := genTrace(100)
	err := Write(faultio.ShortWriter(io.Discard, 3), tr)
	if err == nil {
		t.Fatal("Write to a short writer succeeded")
	}
}

func TestV2WriteErrorPropagates(t *testing.T) {
	tr := genTrace(chunkRecords * 2)
	err := Write(faultio.ErrAfterWriter(io.Discard, 1000, nil), tr)
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestHostileHeaderAllocation: a tiny stream whose count section claims
// 2^28 records must not pre-allocate gigabytes. The claim is structurally
// valid, so decoding fails on the missing end section — the point is that it
// fails fast and small.
func TestHostileHeaderAllocation(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(version2)
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame(secCount, binary.AppendUvarint(nil, maxReasonable)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	before := allocBytes()
	_, err := Read(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("hostile header accepted")
	}
	if grew := allocBytes() - before; grew > 8<<20 {
		t.Fatalf("hostile header allocated %d bytes", grew)
	}
}

// TestReadRejectsV1: the unchecksummed v1 format is not read. Its header
// fails as an unsupported version, strictly and leniently, however sound
// the records after it.
func TestReadRejectsV1(t *testing.T) {
	v1 := append([]byte(magic+"\x01"), AppendRecords(nil, genTrace(500))...)
	if _, err := Read(bytes.NewReader(v1)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("Read of a v1 stream: err = %v, want ErrBadFormat", err)
	}
	got, err := ReadLenient(bytes.NewReader(v1))
	if !errors.Is(err, ErrBadFormat) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadLenient of a v1 stream: err = %v, want ErrBadFormat and ErrCorrupt", err)
	}
	if len(got) != 0 {
		t.Fatalf("ReadLenient salvaged %d records from a v1 stream", len(got))
	}
}

// TestWriteBytesPinned pins the bytes Write emits for a trace of eight
// chunks whose records take every encoder path: one-byte fields, two- and
// three-byte target deltas, wider deltas of either sign, and multi-byte
// gaps. A writer change that moves one byte fails here, so files written
// before it and after it stay the same files.
func TestWriteBytesPinned(t *testing.T) {
	tr := genTrace(7*chunkRecords + 100)
	for i := 0; i < len(tr); i += 97 {
		tr[i].Target ^= 0x00f00000
	}
	for i := 0; i < len(tr); i += 389 {
		tr[i].PC = 0xfff00000 - uint32(i)*4
	}
	for i := 0; i < len(tr); i += 211 {
		tr[i].Gap = 1 << 20
	}
	data := encode(t, tr)
	const want = "1fef84bbb7c44a8e83b20aef8457c2db46e8c92f270d756de9a351fd3c31f59e"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want || len(data) != 138571 {
		t.Fatalf("Write emitted %d bytes with SHA-256 %s, want 138571 bytes with %s", len(data), got, want)
	}
	back, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, back, tr)
}

// allocBytes reports cumulative heap allocation, for coarse allocation caps.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func TestCorruptErrorMessage(t *testing.T) {
	err := corrupt(12, 345, "records section", errChecksum)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("corrupt() does not match ErrCorrupt")
	}
	var cerr *CorruptError
	if !errors.As(err, &cerr) || cerr.Records != 12 || cerr.Offset != 345 {
		t.Fatalf("bad CorruptError: %#v", err)
	}
	if msg := err.Error(); msg == "" {
		t.Fatal("empty message")
	}
}
