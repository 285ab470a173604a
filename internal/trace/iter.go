package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// In-place record iteration
//
// RecordIter walks a count-prefixed record chunk (the secRecords payload and
// FrameRecords body encoding) directly in the payload bytes: no []Record is
// materialized and nothing is allocated on the happy path. It is the one
// decoder of a record chunk. A serve session drives its predictor straight
// off the iterator while the payload sits in a borrowed frame buffer, and
// the v2 file reader's chunk decode (decodeChunk) is an append loop over it.

// RecordIter iterates the records of one chunk payload in place. Create with
// NewRecordIter; the iterator keeps a reference to the payload slice, so with
// a pooled frame the payload must stay live (unreleased) until iteration is
// done.
type RecordIter struct {
	p       []byte
	off     int
	n       int // declared record count
	i       int // records decoded so far
	prevPC  uint32
	prevTgt uint32
	err     error
}

// uvarint decodes one uvarint at it.off with a fast path for the single-byte
// encodings that dominate delta-coded traces.
func (it *RecordIter) uvarint() (uint64, bool) {
	v, off := uvarintAt(it.p, it.off)
	if off < 0 {
		return 0, false
	}
	it.off = off
	return v, true
}

// uvarintAt decodes one uvarint at p[off:], returning the value and the
// offset past it (-1 offset on truncation or a >64-bit encoding). The
// multi-byte tail lives in its own function so Next's inlined 1-byte fast
// paths stay small.
func uvarintAt(p []byte, off int) (uint64, int) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if off >= len(p) {
			return 0, -1
		}
		b := p[off]
		off++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, off
		}
	}
	return 0, -1
}

// NewRecordIter parses the chunk's count prefix and returns an iterator over
// payload. maxRecords bounds the declared count (<= 0 selects the v2 file
// chunk limit). The errors match decodeChunk's: a truncated count is
// io.ErrUnexpectedEOF, an oversized count wraps ErrBadFormat.
func NewRecordIter(payload []byte, maxRecords int) (RecordIter, error) {
	if maxRecords <= 0 {
		maxRecords = chunkRecords
	}
	it := RecordIter{p: payload}
	n, ok := it.uvarint()
	if !ok {
		return it, fmt.Errorf("chunk count: %w", io.ErrUnexpectedEOF)
	}
	if n > uint64(maxRecords) {
		return it, fmt.Errorf("%w: chunk of %d records", ErrBadFormat, n)
	}
	it.n = int(n)
	if it.n == 0 && it.off != len(payload) {
		// A non-empty chunk finds trailing bytes after its last record (see
		// Next); the empty chunk has to be checked here.
		return it, fmt.Errorf("%w: %d trailing bytes in chunk", ErrBadFormat, len(payload)-it.off)
	}
	return it, nil
}

// Len returns the chunk's declared record count.
func (it *RecordIter) Len() int { return it.n }

// Next decodes the next record in place. It returns ok=false at the end of
// the chunk or on a malformed record; Err distinguishes the two.
//
// The field decodes are open-coded on local p/off with a 1-byte fast path
// each (the dominant case for delta-coded traces), falling back to uvarintAt
// for multi-byte values; it.off is written back once per record. This loop
// is the serving hot path's inner decode — it was the top profile entry as a
// method-call-per-varint implementation.
func (it *RecordIter) Next() (Record, bool) {
	if it.i >= it.n || it.err != nil {
		return Record{}, false
	}
	p, off := it.p, it.off

	var upc, utg, kind, gap uint64
	// Packed fast paths: one 8-byte load and one mask test decode the two
	// shapes that dominate delta-coded traces (putRecord emits the mirror
	// encodings) — four one-byte fields, or a one-byte pc delta with a
	// three-byte target delta. Together these cover ~95% of records.
	if off+8 <= len(p) {
		u := binary.LittleEndian.Uint64(p[off:])
		if u&0x80808080 == 0 {
			upc = u & 0x7f
			utg = u >> 8 & 0x7f
			kind = u >> 16 & 0x7f
			gap = u >> 24 & 0x7f
			off += 4
			goto unpacked
		}
		if u&0x0000808080808080 == 0x0000000000808000 {
			upc = u & 0x7f
			utg = u>>8&0x7f | u>>9&(0x7f<<7) | u>>10&(0x7f<<14)
			kind = u >> 32 & 0x7f
			gap = u >> 40 & 0x7f
			off += 6
			goto unpacked
		}
	}
	if off < len(p) && p[off] < 0x80 {
		upc = uint64(p[off])
		off++
	} else if upc, off = uvarintAt(p, off); off < 0 {
		return it.fail("pc")
	}
	if off < len(p) && p[off] < 0x80 {
		utg = uint64(p[off])
		off++
	} else if utg, off = uvarintAt(p, off); off < 0 {
		return it.fail("target")
	}
	if off < len(p) && p[off] < 0x80 {
		kind = uint64(p[off])
		off++
	} else if kind, off = uvarintAt(p, off); off < 0 {
		return it.fail("kind")
	}
	if off < len(p) && p[off] < 0x80 {
		gap = uint64(p[off])
		off++
	} else if gap, off = uvarintAt(p, off); off < 0 {
		return it.fail("gap")
	}

unpacked:
	if kind >= numKinds {
		it.err = fmt.Errorf("%w: record %d kind %d", ErrBadFormat, it.i, kind)
		return Record{}, false
	}
	if gap == 0 || gap > 1<<32-1 {
		it.err = fmt.Errorf("%w: record %d gap %d", ErrBadFormat, it.i, gap)
		return Record{}, false
	}
	it.off = off

	pcd := int64(upc>>1) ^ -int64(upc&1)
	tgd := int64(utg>>1) ^ -int64(utg&1)
	r := Record{
		PC:     it.prevPC + uint32(pcd*4),
		Target: it.prevTgt + uint32(tgd*4),
		Kind:   Kind(kind),
		Gap:    uint32(gap),
	}
	it.prevPC, it.prevTgt = r.PC, r.Target
	it.i++
	if it.i == it.n && off != len(p) {
		// Trailing bytes invalidate the chunk as a whole; the last record
		// still decodes (and is returned), Err carries the verdict.
		it.err = fmt.Errorf("%w: %d trailing bytes in chunk", ErrBadFormat, len(p)-off)
	}
	return r, true
}

// NextBatch decodes up to len(dst) records into dst and returns how many it
// wrote. It is Next amortized: the decode state lives in locals for the whole
// batch and is written back once, so per-record overhead is just the field
// decodes. A short return means end of chunk or a malformed record — check
// Err, then stop. Mixing NextBatch and Next on one iterator is fine; they
// share the same cursor.
func (it *RecordIter) NextBatch(dst []Record) int {
	if it.err != nil {
		return 0
	}
	p, off := it.p, it.off
	prevPC, prevTgt := it.prevPC, it.prevTgt
	k := 0
	if rem := it.n - it.i; rem < len(dst) {
		dst = dst[:rem]
	}
	for k < len(dst) {
		start := off
		var upc, utg, kind, gap uint64
		// Same packed fast paths as Next (see there for the shapes), plus a
		// pair path: two adjacent all-single-byte records fit one 8-byte
		// load, so a clean mask test commits both at once.
		if off+8 <= len(p) {
			u := binary.LittleEndian.Uint64(p[off:])
			if u&0x8080808080808080 == 0 && len(dst)-k >= 2 {
				k1, g1 := u>>16&0x7f, u>>24&0x7f
				k2, g2 := u>>48&0x7f, u>>56
				if k1 < numKinds && g1 != 0 && k2 < numKinds && g2 != 0 {
					upc, utg = u&0x7f, u>>8&0x7f
					prevPC += uint32(int32(upc>>1)^-int32(upc&1)) * 4
					prevTgt += uint32(int32(utg>>1)^-int32(utg&1)) * 4
					dst[k] = Record{PC: prevPC, Target: prevTgt, Kind: Kind(k1), Gap: uint32(g1)}
					upc, utg = u>>32&0x7f, u>>40&0x7f
					prevPC += uint32(int32(upc>>1)^-int32(upc&1)) * 4
					prevTgt += uint32(int32(utg>>1)^-int32(utg&1)) * 4
					dst[k+1] = Record{PC: prevPC, Target: prevTgt, Kind: Kind(k2), Gap: uint32(g2)}
					off += 8
					k += 2
					continue
				}
			}
			if u&0x80808080 == 0 {
				upc = u & 0x7f
				utg = u >> 8 & 0x7f
				kind = u >> 16 & 0x7f
				gap = u >> 24 & 0x7f
				off += 4
				if kind >= numKinds || gap == 0 {
					off = start
					goto bail
				}
				goto commit
			}
			if u&0x0000808080808080 == 0x0000000000808000 {
				upc = u & 0x7f
				utg = u>>8&0x7f | u>>9&(0x7f<<7) | u>>10&(0x7f<<14)
				kind = u >> 32 & 0x7f
				gap = u >> 40 & 0x7f
				off += 6
				if kind >= numKinds || gap == 0 {
					off = start
					goto bail
				}
				goto commit
			}
		}
		if off < len(p) && p[off] < 0x80 {
			upc = uint64(p[off])
			off++
		} else if upc, off = uvarintAt(p, off); off < 0 {
			off = start
			goto bail
		}
		if off < len(p) && p[off] < 0x80 {
			utg = uint64(p[off])
			off++
		} else if utg, off = uvarintAt(p, off); off < 0 {
			off = start
			goto bail
		}
		if off < len(p) && p[off] < 0x80 {
			kind = uint64(p[off])
			off++
		} else if kind, off = uvarintAt(p, off); off < 0 {
			off = start
			goto bail
		}
		if off < len(p) && p[off] < 0x80 {
			gap = uint64(p[off])
			off++
		} else if gap, off = uvarintAt(p, off); off < 0 {
			off = start
			goto bail
		}
		if kind >= numKinds || gap-1 >= 1<<32-1 {
			off = start
			goto bail
		}
	commit:
		pcd := int64(upc>>1) ^ -int64(upc&1)
		tgd := int64(utg>>1) ^ -int64(utg&1)
		prevPC += uint32(pcd * 4)
		prevTgt += uint32(tgd * 4)
		dst[k] = Record{PC: prevPC, Target: prevTgt, Kind: Kind(kind), Gap: uint32(gap)}
		k++
	}
	it.p, it.off = p, off
	it.prevPC, it.prevTgt = prevPC, prevTgt
	it.i += k
	if it.i == it.n && off != len(p) {
		it.err = fmt.Errorf("%w: %d trailing bytes in chunk", ErrBadFormat, len(p)-off)
	}
	return k

bail:
	// Re-decode the offending record through Next so the error text (field,
	// index, cause) is identical to the one-at-a-time path's.
	it.off = off
	it.prevPC, it.prevTgt = prevPC, prevTgt
	it.i += k
	it.Next()
	return k
}

// fail records a truncation error for the named field of the current record.
func (it *RecordIter) fail(field string) (Record, bool) {
	it.err = fmt.Errorf("trace: record %d %s: %w", it.i, field, io.ErrUnexpectedEOF)
	return Record{}, false
}

// Err returns the first malformation found: a truncated or invalid record,
// or trailing bytes after the declared count. It is nil after a clean
// iteration of exactly Len records.
func (it *RecordIter) Err() error { return it.err }
