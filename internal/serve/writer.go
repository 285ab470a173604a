package serve

import (
	"io"
	"net"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// Writer is a session's reply batch, the one serve sessions and the router's
// proxy sessions share. The goroutine that produces the replies owns it (the
// router guards its own with a lock): Add and Ack gather frames into one
// trace.FrameBatcher, and Flush writes them in a single (vectored, when
// payloads are spliced) write.
type Writer struct {
	Conn net.Conn
	// Timeout bounds each flush.
	Timeout time.Duration
	// Publish receives each ack of a flush that succeeded, with its stamp set
	// and the unix-ns clock reading taken as the flush returned.
	Publish func(a Ack, sp *flight.Span, flushedNS int64)
	// BatchSize and FlushTime, when non-nil, record each flush's frame
	// count and wall time.
	BatchSize *telemetry.Gauge
	FlushTime *telemetry.Histogram

	fb   trace.FrameBatcher
	acks []sentAck           // the batch's acks, published after its flush
	enc  [ackPayloadMax]byte // an ack's payload, encoded in place
	err  error               // the first failed flush's; nothing is written after it
}

// sentAck is one ack of a batch: the acknowledged frame's counts and its
// stamp set.
type sentAck struct {
	ack  Ack
	span flight.Span
}

// Add appends one frame to the batch. buf, when non-nil, is payload's pooled
// buffer: the batch takes the caller's reference.
func (w *Writer) Add(typ uint64, payload []byte, buf *trace.PooledBuf) {
	w.fb.Add(typ, payload, buf)
}

// Ack appends the ack frame for a, copied into the batch, and keeps sp to
// publish once the flush has put the ack on the wire.
func (w *Writer) Ack(a Ack, sp flight.Span) {
	w.fb.Add(FrameAck, appendAck(w.enc[:0], a), nil)
	w.acks = append(w.acks, sentAck{ack: a, span: sp})
}

// Flush writes the batch, if it holds anything, under one write deadline,
// then publishes its acks with one clock reading: they all hit the wire in
// the same write. A failed flush drops the batch, and every later Flush
// drops its batch and returns the same error without writing: the client's
// side of the connection is dead.
func (w *Writer) Flush() error {
	if w.err != nil {
		w.fb.Flush(io.Discard) // releases the spliced buffers
		w.dropAcks()
		return w.err
	}
	if w.fb.Frames() == 0 {
		return nil
	}
	w.BatchSize.Set(float64(w.fb.Frames()))
	start := time.Now()
	w.Conn.SetWriteDeadline(start.Add(w.Timeout))
	if w.err = w.fb.Flush(w.Conn); w.err != nil {
		w.dropAcks()
		return w.err
	}
	end := time.Now()
	w.FlushTime.Observe(end.Sub(start))
	for i := range w.acks {
		w.Publish(w.acks[i].ack, &w.acks[i].span, end.UnixNano())
	}
	w.dropAcks()
	return nil
}

func (w *Writer) dropAcks() {
	clear(w.acks)
	w.acks = w.acks[:0]
}
