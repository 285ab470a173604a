package trace

import "fmt"

// FrameLog is a retained prefix of one session's record stream: every
// records frame in seq order, kept as the exact payload bytes it arrived
// with. Prediction is a pure function of the record stream, so replaying
// frames 1..Max through a fresh predictor rebuilds it bit-identically — as
// long as the log still holds the complete prefix. The router journals each
// proxied session in one (failover replay), and a tuned serve session keeps
// its processed frames in one (hot-swap replay).
//
// The log is bounded: payloads of acknowledged frames become evictable, and
// are dropped oldest-first once retained payload bytes exceed the budget.
// Unacknowledged payloads are never evicted. Eviction is a one-way door:
// once any payload is gone the prefix is incomplete and Complete turns false
// for good, so a replay that needs it fails honestly instead of resuming
// with corrupted predictor state.
//
// Payloads are borrowed from a BufferPool: Append takes over the frame's
// reference, and the log releases it on eviction or Release. A holder that
// uses a payload outside the owner's lock must Retain the buffer returned by
// Get for the duration. A FrameLog is not safe for concurrent use.
type FrameLog struct {
	base    uint64     // seq of frames[0]; 1 until eviction
	frames  []logFrame // frames[i] holds the payload of seq base+uint64(i)
	bytes   int64      // retained payload bytes
	budget  int64      // eviction threshold; <=0 means unbounded
	acked   uint64     // highest acknowledged seq
	evicted bool       // a payload has been evicted
}

// logFrame is one retained payload and the pooled buffer backing it (nil for
// unpooled payloads).
type logFrame struct {
	payload []byte
	buf     *PooledBuf
}

// NewFrameLog returns an empty log whose acknowledged frames are evicted
// past budget retained payload bytes; budget <= 0 never evicts.
func NewFrameLog(budget int64) *FrameLog {
	return &FrameLog{base: 1, budget: budget}
}

// Append records the payload of the next frame, taking over buf (the
// frame's pool reference); on error the caller keeps it. Frames must arrive
// in seq order from 1 with no gaps.
func (l *FrameLog) Append(seq uint64, payload []byte, buf *PooledBuf) error {
	if want := l.base + uint64(len(l.frames)); seq != want {
		return fmt.Errorf("trace: frame log append seq %d, want %d", seq, want)
	}
	l.frames = append(l.frames, logFrame{payload: payload, buf: buf})
	l.bytes += int64(len(payload))
	return nil
}

// Max returns the highest logged seq (0 when empty and nothing evicted).
func (l *FrameLog) Max() uint64 { return l.base + uint64(len(l.frames)) - 1 }

// Get returns the payload for seq and its backing buffer, or nil when seq is
// outside the retained range (evicted, released, or not yet appended). The
// buffer reference stays the log's.
func (l *FrameLog) Get(seq uint64) ([]byte, *PooledBuf) {
	if seq < l.base || len(l.frames) == 0 || seq > l.Max() {
		return nil, nil
	}
	f := l.frames[seq-l.base]
	return f.payload, f.buf
}

// Ack marks seq acknowledged and evicts acknowledged payloads oldest-first
// while the retained bytes exceed the budget, releasing their buffers. It
// returns the number of payloads and payload bytes evicted by this call.
func (l *FrameLog) Ack(seq uint64) (frames int, bytes int64) {
	if seq > l.acked {
		l.acked = seq
	}
	for l.budget > 0 && l.bytes > l.budget && l.base <= l.acked && len(l.frames) > 0 {
		n := int64(len(l.frames[0].payload))
		l.bytes -= n
		bytes += n
		l.frames[0].buf.Release()
		l.frames[0] = logFrame{}
		l.frames = l.frames[1:]
		l.base++
		l.evicted = true
		frames++
	}
	return frames, bytes
}

// Release drops every retained payload and returns the byte count it
// released. Afterwards Get returns nil for every seq, so a holder that
// always checks Get under the owner's lock never touches a recycled buffer.
func (l *FrameLog) Release() (bytes int64) {
	for i := range l.frames {
		l.frames[i].buf.Release()
		l.frames[i] = logFrame{}
	}
	bytes = l.bytes
	l.frames = nil
	l.bytes = 0
	return bytes
}

// Complete reports whether the log still holds the complete prefix from
// seq 1 — nothing has ever been evicted.
func (l *FrameLog) Complete() bool { return !l.evicted }

// Retained returns the number of retained frames and their payload bytes.
func (l *FrameLog) Retained() (frames int, bytes int64) {
	return len(l.frames), l.bytes
}
