package trace

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
)

// Vectored frame writes
//
// FrameBatcher assembles any number of frames and hands them to the kernel
// in one vectored write (net.Buffers → writev on TCP connections), instead
// of one buffered WriteFrame+Flush round per frame. Small payloads (acks,
// control frames) are copied into the batch arena so a typical ack burst is
// a single contiguous write; large payloads (records relays, event frames)
// are spliced in by reference and never copied. The batcher also closes the
// loop on buffer ownership: a frame added with its PooledBuf is released as
// soon as the batch no longer needs the bytes.
//
// A FrameBatcher is not safe for concurrent use; each session's reply batch
// owns one. The zero value is ready to use, and all internal storage is
// reused across batches, so a steady-state session allocates nothing.

// inlineLimit is the payload size up to which Add copies into the arena.
// Beyond it, splicing by reference (one more iovec) is cheaper than the
// copy.
const inlineLimit = 512

// FrameBatcher accumulates frames for one vectored write.
type FrameBatcher struct {
	arena   []byte
	cuts    []cut
	owned   []*PooledBuf
	vecs    net.Buffers
	scratch net.Buffers // consumed by WriteTo; vecs keeps the backing array
	frames  int
}

// cut splices an external payload into the arena byte stream at offset off.
type cut struct {
	off int
	ext []byte
}

// Add appends one frame to the batch. owner, when non-nil, is the payload's
// pooled buffer: the batcher takes the caller's reference and releases it —
// immediately if the payload was copied into the arena, after WriteTo if it
// was spliced by reference.
func (fb *FrameBatcher) Add(typ uint64, payload []byte, owner *PooledBuf) {
	// The header is built straight in the arena (a stack array would escape
	// into the crc32 call and cost an allocation per frame).
	start := len(fb.arena)
	fb.arena = binary.AppendUvarint(fb.arena, typ)
	fb.arena = binary.AppendUvarint(fb.arena, uint64(len(payload)))
	sum := crc32.ChecksumIEEE(fb.arena[start:])
	sum = crc32.Update(sum, crc32.IEEETable, payload)
	if len(payload) <= inlineLimit {
		fb.arena = append(fb.arena, payload...)
		owner.Release()
	} else {
		fb.cuts = append(fb.cuts, cut{off: len(fb.arena), ext: payload})
		if owner != nil {
			fb.owned = append(fb.owned, owner)
		}
	}
	fb.arena = binary.LittleEndian.AppendUint32(fb.arena, sum)
	fb.frames++
}

// Frames returns the number of frames accumulated since the last Flush.
func (fb *FrameBatcher) Frames() int { return fb.frames }

// Flush writes the whole batch to w — a single Write when every payload
// was inlined, one vectored write (writev on a net.Conn) otherwise — then
// releases the spliced buffers and resets for the next batch. The batch is
// consumed even on error (the connection is dead; the bytes are gone either
// way).
func (fb *FrameBatcher) Flush(w io.Writer) error {
	var err error
	if len(fb.cuts) == 0 {
		if len(fb.arena) > 0 {
			_, err = w.Write(fb.arena)
		}
	} else {
		vecs := fb.vecs[:0]
		prev := 0
		for _, c := range fb.cuts {
			if c.off > prev {
				vecs = append(vecs, fb.arena[prev:c.off])
			}
			vecs = append(vecs, c.ext)
			prev = c.off
		}
		if prev < len(fb.arena) {
			vecs = append(vecs, fb.arena[prev:])
		}
		fb.vecs = vecs // keep the grown backing array
		// WriteTo consumes its receiver slice; hand it a scratch copy so
		// fb.vecs' backing array survives for the next batch (a field, not a
		// local, so nothing escapes per flush).
		fb.scratch = append(fb.scratch[:0], vecs...)
		full := fb.scratch // WriteTo advances the header; restore it after
		_, err = fb.scratch.WriteTo(w)
		fb.scratch = full[:0]
	}
	for i, b := range fb.owned {
		b.Release()
		fb.owned[i] = nil
	}
	fb.owned = fb.owned[:0]
	fb.cuts = fb.cuts[:0]
	fb.arena = fb.arena[:0]
	fb.frames = 0
	return err
}
