package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format
//
// A trace file opens with a preamble:
//
//	magic   "IBPT"            4 bytes
//	version uvarint           2
//
// and continues as the length-framed, CRC32-checksummed sections documented
// in io_v2.go. Records travel in count-prefixed chunks (AppendRecords), each
// record in this codec:
//
//	pcDelta   varint     (pc - prevPC) / 4, zigzag
//	tgtDelta  varint     (target - prevTarget) / 4, zigzag
//	kind      uvarint
//	gap       uvarint
//
// PC and target deltas are word deltas from the previous record, which keeps
// typical loop traces to a few bytes per record.

const (
	magic     = "IBPT"
	version2  = 2
	maxRecord = 4 * binary.MaxVarintLen64 // encoded size upper bound
)

// maxReasonable bounds the record count any header may claim before the
// stream is rejected outright.
const maxReasonable = 1 << 28

// maxPrealloc caps the capacity allocated up front from a header-declared
// record count (64 KiB worth of in-memory records); a hostile header cannot
// force a multi-GiB allocation, the slice simply grows as records decode.
const maxPrealloc = 64 * 1024 / 16 // 16 bytes per in-memory Record

// ErrBadFormat is returned when a trace stream does not start with the
// expected magic or uses an unsupported version.
var ErrBadFormat = errors.New("trace: bad format")

// preallocCount clamps a header-declared record count to a safe initial
// slice capacity.
func preallocCount(declared uint64) int {
	if declared > maxPrealloc {
		return maxPrealloc
	}
	return int(declared)
}

// appendUv appends the uvarint encoding of v with open-coded 1- and 2-byte
// fast paths (the dominant sizes for delta-coded records); larger values
// fall through to the stdlib loop.
func appendUv(buf []byte, v uint64) []byte {
	if v < 1<<7 {
		return append(buf, byte(v))
	}
	if v < 1<<14 {
		return append(buf, byte(v)|0x80, byte(v>>7))
	}
	if v < 1<<21 {
		return append(buf, byte(v)|0x80, byte(v>>7)|0x80, byte(v>>14))
	}
	return binary.AppendUvarint(buf, v)
}

// zigzag is the varint sign-folding used by the record codec (identical to
// encoding/binary's).
func zigzag(v int64) uint64 {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uv
}

// putRecord appends the delta-encoding of r (relative to the previous
// record) to buf and returns the extended slice. Capacity headroom for a
// worst-case record is ensured once up front, so the common shapes — pc,
// kind and gap single-byte with a target delta of up to three bytes — are
// emitted as a single 4- or 8-byte store into the spare capacity (the
// canonical byte sequences are unchanged; the wide store just writes the
// whole record at once, and at most four dead bytes past the returned
// length). The rest goes field-by-field through appendUv.
func putRecord(buf []byte, r Record, prevPC, prevTgt uint32) []byte {
	upc := zigzag(int64(int32(r.PC-prevPC)) >> 2)
	utg := zigzag(int64(int32(r.Target-prevTgt)) >> 2)
	gap := uint64(r.Gap)
	if cap(buf)-len(buf) < maxRecord {
		buf = append(buf, make([]byte, maxRecord)...)[:len(buf)]
	}
	n := len(buf)
	if upc|gap|uint64(r.Kind) < 1<<7 {
		b := buf[n:cap(buf)]
		switch {
		case utg < 1<<7:
			binary.LittleEndian.PutUint32(b,
				uint32(upc)|uint32(utg)<<8|uint32(r.Kind)<<16|uint32(gap)<<24)
			return buf[:n+4]
		case utg < 1<<14:
			binary.LittleEndian.PutUint64(b,
				upc|(utg&0x7f|0x80)<<8|utg>>7<<16|uint64(r.Kind)<<24|gap<<32)
			return buf[:n+5]
		case utg < 1<<21:
			binary.LittleEndian.PutUint64(b,
				upc|(utg&0x7f|0x80)<<8|(utg>>7&0x7f|0x80)<<16|utg>>14<<24|uint64(r.Kind)<<32|gap<<40)
			return buf[:n+6]
		}
	}
	buf = appendUv(buf, upc)
	buf = appendUv(buf, utg)
	buf = appendUv(buf, uint64(r.Kind))
	return appendUv(buf, gap)
}

// Write encodes the trace to w in the IBPT v2 format.
func Write(w io.Writer, t Trace) error {
	return writeV2(w, t)
}

// readPreamble consumes the magic and version from br, refusing any version
// but 2.
func readPreamble(br *bufio.Reader) error {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return fmt.Errorf("%w: magic %q", ErrBadFormat, m)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("trace: reading version: %w", err)
	}
	if version != version2 {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	return nil
}

// Read decodes a trace, verifying it strictly: any framing or checksum
// violation is reported as a *CorruptError (matching ErrCorrupt) and no
// records are returned. Use ReadLenient to salvage the valid prefix instead.
func Read(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	if err := readPreamble(br); err != nil {
		return nil, err
	}
	return readV2(br, true)
}

// ReadLenient decodes as much of the stream as it can. On a clean stream it
// behaves like Read. On a truncated or corrupted stream it returns the
// records decoded before the damage together with a *CorruptError describing
// where decoding stopped; the salvaged prefix is always a valid Trace that
// re-encodes cleanly. The error matches both ErrCorrupt and, via Unwrap, the
// underlying cause.
func ReadLenient(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	if err := readPreamble(br); err != nil {
		return nil, corrupt(0, 0, "preamble", err)
	}
	return readV2(br, false)
}

// Dump writes a human-readable listing of the first n records (all records
// if n <= 0) to w, one record per line.
func Dump(w io.Writer, t Trace, n int) error {
	if n <= 0 || n > len(t) {
		n = len(t)
	}
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		r := t[i]
		if _, err := fmt.Fprintf(bw, "%8d  %-6s  pc=%08x  target=%08x  gap=%d\n",
			i, r.Kind, r.PC, r.Target, r.Gap); err != nil {
			return err
		}
	}
	return bw.Flush()
}
