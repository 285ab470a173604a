package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version 2 trace format
//
// After the "IBPT" + version preamble (io.go), a v2 stream is a sequence of
// length-framed, CRC32-checksummed sections:
//
//	type    uvarint
//	length  uvarint            payload length in bytes
//	payload length bytes
//	crc32   4 bytes LE         IEEE CRC32 of the encoded type+length+payload
//
// Section types:
//
//	secCount (1)    payload: uvarint total record count (advisory; used to
//	                size the decode buffer, verified at end of stream)
//	secRecords (2)  payload: uvarint chunk record count, then that many
//	                records in the record codec (AppendRecords). Delta
//	                state resets at every chunk boundary (prevPC =
//	                prevTarget = 0), so each chunk decodes independently
//	                and a damaged chunk never poisons its neighbours.
//	secEnd (3)      empty payload; marks a clean end of trace.
//
// Unknown section types with a valid checksum are skipped (forward
// compatibility). Strict readers reject any framing or checksum violation
// with *CorruptError; lenient readers salvage every intact chunk before the
// damage.

const (
	secCount   = 1
	secRecords = 2
	secEnd     = 3

	// chunkRecords is the number of records per secRecords section; small
	// enough that a single corrupted chunk loses little data, large enough
	// that framing overhead (≤ ~12 bytes per section) is negligible.
	chunkRecords = 4096

	// maxSectionPayload bounds a section's declared payload so a corrupted
	// length cannot force a huge allocation.
	maxSectionPayload = 1 << 24
)

// ErrCorrupt is the sentinel matched by every corruption error produced by
// the strict and lenient readers: errors.Is(err, ErrCorrupt) reports whether
// a stream was damaged (as opposed to merely using an unknown format).
var ErrCorrupt = errors.New("trace: corrupt stream")

// CorruptError describes where and why trace decoding stopped. It matches
// ErrCorrupt via errors.Is and unwraps to the underlying cause.
type CorruptError struct {
	// Records is the number of records salvaged before the damage.
	Records int
	// Offset is the byte offset (relative to the start of the section
	// stream, after the preamble) at which the damaged section began; 0
	// when the preamble itself was damaged or the offset is unknown.
	Offset int64
	// Detail says what was being decoded when the damage was found.
	Detail string
	// Err is the underlying cause.
	Err error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt stream at byte %d (%s, %d records salvaged): %v",
		e.Offset, e.Detail, e.Records, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is reports that a CorruptError matches the ErrCorrupt sentinel.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// corrupt builds a *CorruptError.
func corrupt(records int, offset int64, detail string, err error) error {
	return &CorruptError{Records: records, Offset: offset, Detail: detail, Err: err}
}

// errChecksum is the cause recorded when a section's CRC32 does not match.
var errChecksum = errors.New("checksum mismatch")

// writeV2 encodes the trace in the v2 sectioned format.
func writeV2(w io.Writer, t Trace) error {
	fw := NewFrameWriter(w)
	if _, err := fw.bw.WriteString(magic); err != nil {
		return err
	}
	n := binary.PutUvarint(fw.hdr[:], version2)
	if _, err := fw.bw.Write(fw.hdr[:n]); err != nil {
		return err
	}
	payload := make([]byte, 0, chunkRecords*maxRecord/8)
	payload = binary.AppendUvarint(payload, uint64(len(t)))
	if err := fw.WriteFrame(secCount, payload); err != nil {
		return err
	}
	for start := 0; start < len(t); start += chunkRecords {
		end := min(start+chunkRecords, len(t))
		payload = AppendRecords(payload[:0], t[start:end])
		if err := fw.WriteFrame(secRecords, payload); err != nil {
			return err
		}
	}
	if err := fw.WriteFrame(secEnd, nil); err != nil {
		return err
	}
	return fw.Flush()
}

// sectionScanner reads framed sections while tracking byte offsets and the
// raw header bytes needed for checksum verification.
type sectionScanner struct {
	br   *bufio.Reader
	off  int64       // offset of the next unread byte, from the start of sections
	max  int         // payload size limit; 0 means maxSectionPayload
	pool *BufferPool // payload source; nil allocates per section
	hdr  []byte      // header scratch, reused across next calls
	crc  [4]byte     // checksum scratch; a local would escape through io.ReadFull
}

// section is one decoded, checksum-verified frame.
type section struct {
	start   int64 // offset of the section's first byte
	typ     uint64
	payload []byte
	buf     *PooledBuf // backing pooled buffer; nil when payload is unpooled
}

// next reads and verifies the next section. It returns io.EOF (untouched)
// only at a clean section boundary; any other error means the frame at
// s.start was damaged (any borrowed payload is already back in the pool).
func (s *sectionScanner) next() (section, error) {
	sec := section{start: s.off}
	s.hdr = s.hdr[:0]
	readUvarint := func() (uint64, error) {
		var v uint64
		for shift := uint(0); ; shift += 7 {
			b, err := s.br.ReadByte()
			if err != nil {
				return 0, err
			}
			s.off++
			s.hdr = append(s.hdr, b)
			if shift >= 64 {
				return 0, fmt.Errorf("%w: varint overflow", ErrBadFormat)
			}
			v |= uint64(b&0x7f) << shift
			if b&0x80 == 0 {
				return v, nil
			}
		}
	}
	typ, err := readUvarint()
	if err != nil {
		if err == io.EOF && len(s.hdr) == 0 {
			return sec, io.EOF
		}
		return sec, fmt.Errorf("section type: %w", noEOF(err))
	}
	sec.typ = typ
	plen, err := readUvarint()
	if err != nil {
		return sec, fmt.Errorf("section length: %w", noEOF(err))
	}
	limit := uint64(maxSectionPayload)
	if s.max > 0 {
		limit = uint64(s.max)
	}
	if plen > limit {
		return sec, fmt.Errorf("%w: section payload %d bytes", ErrBadFormat, plen)
	}
	fail := func(detail string, err error) (section, error) {
		if sec.buf != nil {
			sec.buf.Release()
			sec.buf, sec.payload = nil, nil
		}
		return sec, fmt.Errorf("%s: %w", detail, err)
	}
	if s.pool != nil {
		sec.buf = s.pool.Get(int(plen))
		sec.payload = sec.buf.Bytes()
	} else {
		sec.payload = make([]byte, plen)
	}
	if _, err := io.ReadFull(s.br, sec.payload); err != nil {
		return fail("section payload", noEOF(err))
	}
	s.off += int64(plen)
	if _, err := io.ReadFull(s.br, s.crc[:]); err != nil {
		return fail("section checksum", noEOF(err))
	}
	s.off += 4
	sum := crc32.ChecksumIEEE(s.hdr)
	sum = crc32.Update(sum, crc32.IEEETable, sec.payload)
	if got := binary.LittleEndian.Uint32(s.crc[:]); got != sum {
		if sec.buf != nil {
			sec.buf.Release()
			sec.buf, sec.payload = nil, nil
		}
		return sec, fmt.Errorf("%w: want %08x, got %08x", errChecksum, sum, got)
	}
	return sec, nil
}

// noEOF converts io.EOF into io.ErrUnexpectedEOF: inside a frame, running
// out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeChunk decodes one records payload (delta state starts at zero) into
// a materialized Trace, rejecting chunks that declare more than max records.
// It is RecordIter with an append loop; the two cannot drift.
func decodeChunk(payload []byte, max int) (Trace, error) {
	it, err := NewRecordIter(payload, max)
	if err != nil {
		return nil, err
	}
	out := make(Trace, it.Len())
	out = out[:it.NextBatch(out)]
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// readV2 decodes a v2 stream positioned after the preamble. In strict mode
// any violation returns (nil, *CorruptError). In lenient mode every record
// decoded before the damage is returned alongside the *CorruptError; a
// clean stream returns a nil error in both modes.
func readV2(br *bufio.Reader, strict bool) (Trace, error) {
	s := &sectionScanner{br: br}
	var out Trace
	declared := int64(-1)
	fail := func(off int64, detail string, err error) (Trace, error) {
		cerr := corrupt(len(out), off, detail, err)
		if strict {
			return nil, cerr
		}
		return out, cerr
	}
	for {
		sec, err := s.next()
		if err == io.EOF {
			return fail(sec.start, "missing end-of-trace section", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return fail(sec.start, "section frame", err)
		}
		switch sec.typ {
		case secCount:
			n, err := binary.ReadUvarint(bytes.NewReader(sec.payload))
			if err != nil || n > maxReasonable {
				return fail(sec.start, "count section", ErrBadFormat)
			}
			declared = int64(n)
			if out == nil {
				out = make(Trace, 0, preallocCount(n))
			}
		case secRecords:
			chunk, err := decodeChunk(sec.payload, chunkRecords)
			if err != nil {
				return fail(sec.start, "records section", err)
			}
			if len(out)+len(chunk) > maxReasonable {
				return fail(sec.start, "records section", fmt.Errorf("%w: implausible record count", ErrBadFormat))
			}
			out = append(out, chunk...)
		case secEnd:
			if declared >= 0 && declared != int64(len(out)) {
				return fail(sec.start, fmt.Sprintf("record count: declared %d, decoded %d", declared, len(out)), ErrBadFormat)
			}
			if out == nil {
				out = Trace{}
			}
			return out, nil
		default:
			// Checksummed but unknown: an extension section from a newer
			// writer. Skip it.
		}
	}
}
