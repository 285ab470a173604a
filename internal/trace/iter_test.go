package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// iterAll drains a RecordIter one record at a time.
func iterAll(payload []byte, max int) (Trace, error) {
	it, err := NewRecordIter(payload, max)
	if err != nil {
		return nil, err
	}
	var out Trace
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, it.Err()
}

func TestRecordIterMatchesDecodeChunk(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 256, 4096} {
		payload := AppendRecords(nil, genTrace(n))
		want, derr := decodeChunk(payload, 0)
		if derr != nil {
			t.Fatalf("n=%d: decodeChunk: %v", n, derr)
		}
		got, ierr := iterAll(payload, 0)
		if ierr != nil {
			t.Fatalf("n=%d: iterator: %v", n, ierr)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: iterator %d records, decodeChunk %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d record %d: %+v != %+v", n, i, got[i], want[i])
			}
		}
	}
}

// TestRecordIterNextBatchMatchesNext drives the same payload through Next and
// through NextBatch with deliberately awkward batch sizes, including ones
// that split the paired fast path.
func TestRecordIterNextBatchMatchesNext(t *testing.T) {
	payload := AppendRecords(nil, genTrace(1000))
	want, err := iterAll(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 3, 5, 64, 1000, 5000} {
		it, err := NewRecordIter(payload, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got Trace
		dst := make([]Record, size)
		for {
			n := it.NextBatch(dst)
			if n == 0 {
				break
			}
			got = append(got, dst[:n]...)
		}
		if err := it.Err(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: %d records, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d record %d: %+v != %+v", size, i, got[i], want[i])
			}
		}
	}
}

// TestRecordIterTypedErrors pins the error contract shared by the iterator
// and decodeChunk: truncations report io.ErrUnexpectedEOF, structural
// violations report ErrBadFormat — and both decoders agree on every case.
func TestRecordIterTypedErrors(t *testing.T) {
	valid := AppendRecords(nil, genTrace(2))
	oversize := binary.AppendUvarint(nil, 5000)
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"truncated count", []byte{0x80}, io.ErrUnexpectedEOF},
		{"oversize count", oversize, ErrBadFormat},
		{"truncated record", valid[:len(valid)-1], io.ErrUnexpectedEOF},
		{"bad kind", []byte{1, 0, 0, numKinds, 1}, ErrBadFormat},
		{"zero gap", []byte{1, 0, 0, 0, 0}, ErrBadFormat},
		{"trailing bytes", append(append([]byte{}, valid...), 0xff), ErrBadFormat},
		{"trailing after empty chunk", []byte{0, 0xff}, ErrBadFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ierr := iterAll(tc.payload, 4096)
			if !errors.Is(ierr, tc.want) {
				t.Fatalf("iterator error %v, want %v", ierr, tc.want)
			}
			_, derr := decodeChunk(tc.payload, 4096)
			if !errors.Is(derr, tc.want) {
				t.Fatalf("decodeChunk error %v, want %v", derr, tc.want)
			}
		})
	}
}

// TestRecordIterTruncationEveryPrefix cross-checks the two decoders on every
// prefix of a real payload: same accept/reject verdict, same error type.
func TestRecordIterTruncationEveryPrefix(t *testing.T) {
	payload := AppendRecords(nil, genTrace(64))
	for cut := 0; cut < len(payload); cut++ {
		prefix := payload[:cut]
		_, ierr := iterAll(prefix, 0)
		_, derr := decodeChunk(prefix, 0)
		if (ierr == nil) != (derr == nil) {
			t.Fatalf("cut %d: iterator %v, decodeChunk %v", cut, ierr, derr)
		}
		if ierr != nil {
			if errors.Is(ierr, ErrBadFormat) != errors.Is(derr, ErrBadFormat) ||
				errors.Is(ierr, io.ErrUnexpectedEOF) != errors.Is(derr, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: error types disagree: %v vs %v", cut, ierr, derr)
			}
		}
	}
}
