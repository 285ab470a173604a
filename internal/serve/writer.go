package serve

import (
	"net"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// OutFrame is one frame queued for a session's Writer. Buf, when non-nil,
// is the pooled buffer backing Payload; the writer, or whoever drops the
// frame instead, releases it.
type OutFrame struct {
	Type    uint64
	Payload []byte
	Buf     *trace.PooledBuf
	// Final closes the connection once this frame is flushed: the
	// session's last frame, a Summary or an Error.
	Final bool
	// Ack and Span ride with a FrameAck: the acknowledged frame's counts
	// and its stamp set, which the writer publishes after the flush that
	// puts the ack on the wire.
	Ack  Ack
	Span flight.Span
}

// Writer is a session's writer goroutine, the one serve sessions and the
// router's proxy sessions share. It owns the write side of Conn: every
// wakeup gathers all queued frames into one FrameBatcher flush, a single
// (vectored, when payloads are spliced) write.
type Writer struct {
	Conn net.Conn
	Out  <-chan OutFrame
	// Stop ends the session without ceremony: what is still queued is
	// released unwritten and Conn is closed.
	Stop <-chan struct{}
	// Timeout bounds each flush.
	Timeout time.Duration
	// Publish receives each ack of a flush that succeeded, with the unix-ns
	// clock reading taken as the flush returned.
	Publish func(f *OutFrame, flushedNS int64)
	// Exit runs once Conn is closed: err is the failed flush's error, nil
	// after a Final frame or Stop.
	Exit func(err error)
	// BatchSize and FlushTime, when non-nil, record each flush's frame
	// count and wall time.
	BatchSize *telemetry.Gauge
	FlushTime *telemetry.Histogram
}

// Run writes until a Final frame is flushed, a flush fails, or Stop closes.
// It then closes Conn, runs Exit, and releases whatever is still queued —
// best effort: once Exit has run the owner's senders release what they
// would queue, but one racing it may still leave a buffer to the GC.
func (w *Writer) Run() {
	err := w.loop()
	w.Conn.Close()
	w.Exit(err)
	for {
		select {
		case m := <-w.Out:
			m.Buf.Release()
		default:
			return
		}
	}
}

func (w *Writer) loop() error {
	var fb trace.FrameBatcher
	var acks []OutFrame // the batch's acks, published after its flush
	add := func(m OutFrame) {
		fb.Add(m.Type, m.Payload, m.Buf)
		if m.Type == FrameAck {
			acks = append(acks, m)
		}
	}
	for {
		select {
		case <-w.Stop:
			return nil
		case m := <-w.Out:
			add(m)
			final := m.Final
		gather: // batch everything already queued into one write
			for !final {
				select {
				case n := <-w.Out:
					add(n)
					final = n.Final
				default:
					break gather
				}
			}
			w.BatchSize.Set(float64(fb.Frames()))
			// One clock read on each side of the flush: the one before arms
			// the write deadline, the one after stamps every ack of the
			// batch (they all hit the wire in the same write).
			start := time.Now()
			w.Conn.SetWriteDeadline(start.Add(w.Timeout))
			if err := fb.Flush(w.Conn); err != nil {
				return err
			}
			end := time.Now()
			w.FlushTime.Observe(end.Sub(start))
			for i := range acks {
				w.Publish(&acks[i], end.UnixNano())
			}
			clear(acks)
			acks = acks[:0]
			if final {
				return nil
			}
		}
	}
}
