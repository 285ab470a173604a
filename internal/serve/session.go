package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
)

// session is one client connection's state. The reader goroutine (the
// connection's own, after the FrontEnd handshake) decodes frames and feeds
// the session's shard; the shard worker owns the predictor and the
// accounting; the writer goroutine owns the connection's write side. The
// worker-owned fields are never touched by the other two goroutines.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	hello    Hello
	predName string
	window   int
	events   bool
	// tracer mints each records frame's span, its one stamp set; nil when
	// tracing is off, and the stamps are taken all the same. Set before the
	// reader starts, read-only after.
	tracer *flight.Tracer
	// track is the session's stats entry in the introspection registry,
	// updated once per frame from the frame's stamps. Set before the reader
	// starts, read-only after.
	track *sessiontrack.Session

	// reader-owned
	nextSeq uint64
	shard   *shard

	// shared
	inflight atomic.Int32
	dead     atomic.Bool
	draining atomic.Bool
	out      chan OutFrame
	stop     chan struct{}
	stopOnce sync.Once

	// worker-owned: the prediction kernel (predictor and sim accounting),
	// and evs, the kernel's event output for the frame in progress.
	kern    *sim.Kernel
	frames  int
	records int
	evs     eventLog

	// tun is the session's adaptation-plane state (nil when tuning is off),
	// fed by kern as its miss observer. hist (non-nil exactly when tun is)
	// retains the session's processed record chunks in their pooled frame
	// buffers for the swap replay, within the policy's histmax budget.
	// Worker-owned like the kernel, so a hot swap needs no locks.
	tun  *tuner.SessionTuner
	hist *trace.FrameLog
}

func newSession(s *Server, conn net.Conn, pred core.Predictor, hello Hello, window int) *session {
	sess := &session{
		srv:      s,
		conn:     conn,
		hello:    hello,
		kern:     sim.NewKernel(pred, sim.Options{Warmup: hello.Warmup}),
		predName: pred.Name(),
		window:   window,
		events:   hello.Events,
		// Each processed frame queues at most two messages (events + ack);
		// the handshake and final summary ride in the slack. The writer
		// drains continuously, so the channel only fills when the client
		// stops reading — which send turns into a shed session rather than
		// a stalled shard.
		out:  make(chan OutFrame, 2*window+8),
		stop: make(chan struct{}),
	}
	if sess.events {
		sess.kern.SetEvents(&sess.evs)
	}
	return sess
}

// send queues a frame for the writer without ever blocking the caller (shard
// workers must not stall on one slow client). A full queue means the client
// stopped consuming acks faster than the window allows: the session is shed.
// A message that does not make it to the writer has its buffer released here.
func (sess *session) send(m OutFrame) bool {
	if sess.dead.Load() {
		// The writer may already be gone; do not strand a pooled buffer in
		// the queue.
		m.Buf.Release()
		return false
	}
	select {
	case sess.out <- m:
		return true
	default:
		m.Buf.Release()
		sess.fail(CodeOverload, "response queue overflow: client not consuming acks")
		return false
	}
}

// fail marks the session dead exactly once and tears the connection down.
// The session counts as dropped (it will never get a Summary).
func (sess *session) fail(code, msg string) {
	if !sess.dead.CompareAndSwap(false, true) {
		return
	}
	sess.srv.m.sessionsDropped.Inc()
	sess.srv.cfg.Log.Warn("session dropped", "session", sess.id, "code", code, "err", msg)
	sess.srv.unregister(sess)
	// Best effort: tell the client why. If the writer is gone or the queue
	// is full the close alone has to do.
	select {
	case sess.out <- OutFrame{Type: FrameError, Payload: marshalJSON(&WireError{Code: code, Msg: msg}), Final: true}:
	default:
		sess.stopOnce.Do(func() { close(sess.stop) })
	}
}

// beginDrain marks the session draining and kicks its reader off the socket
// (an immediate read deadline); the reader then queues the drain sentinel
// behind any frames already accepted, so everything acknowledged — or about
// to be — lands in the final summary.
func (sess *session) beginDrain() {
	sess.draining.Store(true)
	sess.conn.SetReadDeadline(time.Now())
}

// hardClose cuts the session without ceremony (forced shutdown).
func (sess *session) hardClose() {
	sess.dead.Store(true)
	sess.srv.unregister(sess)
	sess.stopOnce.Do(func() { close(sess.stop) })
}

// Drain and Kill implement sessiontrack.Conn: the registry's drain
// handshake maps onto the session's graceful drain and hard close.
func (sess *session) Drain() { sess.beginDrain() }
func (sess *session) Kill()  { sess.hardClose() }

// Retune implements sessiontrack.Retuner: the /sessions/{id}/retune admin
// verb forces a tuner decision at the session's next frame boundary.
func (sess *session) Retune() bool { return sess.tun.Retune() }

// publish is the one place a frame's stamps go, once its ack is on the
// wire: the frame histograms, the session's stats and the flight recorder.
// A frame whose ack never flushes (the session shed, killed or cut first)
// counts in serve_frames_total but reaches none of them.
func (sess *session) publish(f *OutFrame, flushedNS int64) {
	sp := &f.Span
	sp.StampAt(flight.HopServerAckWrite, flushedNS)
	wait := sp.Between(flight.HopServerRecv, flight.HopServerDequeue)
	m := sess.srv.m
	m.queueWait.Observe(wait)
	m.predictTime.Observe(sp.Between(flight.HopServerDequeue, flight.HopServerPredict))
	m.frameLatency.Observe(sp.Between(flight.HopServerRecv, flight.HopServerPredict))
	sess.track.FrameAcked(flushedNS, f.Ack.Records, f.Ack.Executed, f.Ack.Misses, wait)
	sp.Finish()
}

// writerExit sheds the session when a flush failed; a Final frame or a stop
// has already settled it.
func (sess *session) writerExit(err error) {
	if err != nil {
		sess.fail(CodeOverload, fmt.Sprintf("write: %v", err))
	}
}

// readLoop decodes client frames until Done, drain, or failure, feeding the
// session's shard. It owns nextSeq and the shard assignment.
func (sess *session) readLoop(fr *trace.FrameReader) {
	s := sess.srv
	for {
		if sess.dead.Load() {
			return
		}
		if sess.draining.Load() {
			break
		}
		sess.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		// Re-check after arming the deadline: beginDrain sets the draining
		// flag before it sets its immediate deadline, so whichever deadline
		// write lands last, either this check breaks or the read times out
		// at once — the reader can never sleep a full ReadTimeout into a
		// drain.
		if sess.draining.Load() {
			break
		}
		f, err := fr.Next()
		if err != nil {
			if sess.draining.Load() {
				break
			}
			if sess.dead.Load() {
				return
			}
			if err == io.EOF {
				sess.fail(CodeBadFrame, "client closed before Done")
			} else {
				sess.fail(CodeBadFrame, err.Error())
			}
			return
		}
		switch f.Type {
		case FrameRecords:
			// The reader only peels the sequence number and (for shard
			// pinning) peeks the first PC; the chunk itself is validated by
			// the worker while it iterates the borrowed payload in place.
			seq, chunk, err := splitRecordsFrame(f.Payload)
			if err != nil {
				f.Release()
				sess.fail(CodeBadFrame, err.Error())
				return
			}
			if seq != sess.nextSeq+1 {
				f.Release()
				sess.fail(CodeBadSeq, fmt.Sprintf("frame seq %d, want %d", seq, sess.nextSeq+1))
				return
			}
			sess.nextSeq = seq
			sess.track.AddInflight(1)
			if int(sess.inflight.Add(1)) > sess.window+1 {
				// +1 of slack: the client legitimately sends the next frame
				// the instant an ack is on the wire.
				f.Release()
				sess.fail(CodeOverLimit, fmt.Sprintf("window overflow: %d frames in flight, window %d", sess.inflight.Load(), sess.window))
				return
			}
			if sess.shard == nil {
				pc, _ := trace.PeekFirstPC(chunk)
				sess.shard = s.shardFor(pc)
			}
			// One clock read per frame (amortized over its ~thousands of
			// records) is both its receive and its enqueue stamp, so a
			// blocked (backpressured) enqueue shows up in the
			// enqueue→dequeue gap, where it belongs.
			j := job{sess: sess, seq: seq, chunk: chunk, buf: f.Buffer(), span: sess.tracer.Start(seq)}
			recvNS := time.Now().UnixNano()
			j.span.StampAt(flight.HopServerRecv, recvNS)
			j.span.StampAt(flight.HopServerEnqueue, recvNS)
			if !s.enqueue(sess.shard, j) {
				// Hard stop; enqueue released the buffer. Take the session
				// off the books — no worker will ever summarize it.
				sess.hardClose()
				return
			}
		case FrameDone:
			f.Release()
			if sess.shard == nil {
				// No records ever arrived; summarize from any shard.
				sess.shard = s.shardFor(0)
			}
			if !s.enqueue(sess.shard, job{sess: sess, done: true}) {
				// Hard stop swallowed the sentinel: emitSummary will never
				// run, so close here or the session stays registered and
				// serve_sessions_active never comes back down.
				sess.hardClose()
			}
			return
		default:
			// Unknown-but-checksummed client frame: skip it, mirroring the
			// trace format's forward-compatibility rule.
			f.Release()
		}
	}
	// Drain path: everything already queued will be processed; the sentinel
	// asks the worker to summarize after it.
	if sess.shard == nil {
		sess.shard = s.shardFor(0)
	}
	if !s.enqueue(sess.shard, job{sess: sess, drain: true}) {
		// Shed during the drain race (hard stop beat the sentinel): no
		// summary is coming, so the session must take itself off the books.
		sess.hardClose()
	}
}

// processFrame runs the session kernel (DESIGN.md §5b) straight off a
// RecordIter over the borrowed chunk, then queues the (events and) ack frames
// from pooled payload buffers and releases the chunk's buffer. A predictor
// panic is confined to this session, like a sim lane's.
func (sess *session) processFrame(j job) {
	seq, chunk, buf := j.seq, j.chunk, j.buf
	defer buf.Release()
	defer func() {
		if r := recover(); r != nil {
			sess.srv.m.panics.Inc()
			sess.fail(CodePredictor, fmt.Sprintf("predictor panicked: %v\n%s", r, debug.Stack()))
		}
	}()
	s := sess.srv
	m := s.m
	j.span.StampAt(flight.HopServerDequeue, time.Now().UnixNano())
	before := sess.kern.Result()
	nrecs, err := runChunk(sess.kern, chunk, s.cfg.MaxFrameRecords)
	if err != nil {
		// The predictor may already have seen the frame's valid prefix, but a
		// session that ships a malformed chunk never reaches a Summary, so
		// the bit-identical accounting contract is unaffected.
		sess.fail(CodeBadFrame, err.Error())
		return
	}
	res := sess.kern.Result()
	executed, misses := res.Executed-before.Executed, res.Misses-before.Misses
	sess.frames++
	sess.records += nrecs
	j.span.StampAt(flight.HopServerPredict, time.Now().UnixNano())
	j.span.SetRecords(nrecs)
	// The (allocating) table stats refresh is amortized to every 16th
	// frame — the predictor is worker-owned, so only this goroutine may
	// read it.
	if sess.frames&0xf == 0 {
		sess.updateTables()
	}
	m.frames.Inc()
	m.records.Add(uint64(nrecs))
	m.misses.Add(uint64(misses))
	ack := Ack{
		Seq:               seq,
		Records:           nrecs,
		Executed:          executed,
		Misses:            misses,
		TotalExecuted:     res.Executed,
		TotalMisses:       res.Misses,
		TotalNoPrediction: res.NoPrediction,
	}
	if sess.events {
		// Worst case per event: three 5-byte varints plus the flags byte.
		eb := s.pool.Get(16*len(sess.evs) + 2*binary.MaxVarintLen64)
		payload := appendEvents(eb.Bytes()[:0], seq, sess.evs)
		sess.evs = sess.evs[:0] // keep the grown buffer for the next frame
		if !sess.send(OutFrame{Type: FrameEvents, Payload: payload, Buf: eb}) {
			return
		}
	}
	sess.inflight.Add(-1)
	sess.track.AddInflight(-1)
	ab := s.pool.Get(ackPayloadMax)
	payload := appendAck(ab.Bytes()[:0], ack)
	// The span rides the ack to the writer, which publishes it after the
	// flush; a shed message simply drops the span.
	if sess.send(OutFrame{Type: FrameAck, Payload: payload, Buf: ab, Ack: ack, Span: j.span}) {
		m.acks.Inc()
	}
	// The frame boundary is the tuner's only legal act point; the ack above
	// still carries the pre-swap totals, the next one reflects the replayed
	// accounting.
	if sess.tun != nil {
		sess.tunerFrameEnd(seq, chunk, buf, executed, misses)
	}
}

// runChunk runs k over an encoded record chunk in place, a RecordIter batch
// at a time, and returns the number of records it held.
func runChunk(k *sim.Kernel, chunk []byte, maxRecords int) (int, error) {
	it, err := trace.NewRecordIter(chunk, maxRecords)
	if err != nil {
		return 0, err
	}
	n := 0
	var batch [256]trace.Record
	for {
		bn := it.NextBatch(batch[:])
		if bn == 0 {
			break
		}
		n += bn
		k.Run(batch[:bn])
	}
	if err := it.Err(); err != nil {
		return n, fmt.Errorf("trace: records payload: %w", err)
	}
	return n, nil
}

// updateTables refreshes the session's table stats in the introspection
// registry when the predictor exposes them.
func (sess *session) updateTables() {
	if ts, ok := sess.kern.Predictor().(core.TableStatser); ok {
		sess.track.UpdateTables(ts.TableStats())
	}
}

// ackPayloadMax is an Ack payload's encoded size bound: seven uvarints.
const ackPayloadMax = 7 * binary.MaxVarintLen64

// emitSummary finishes the session: the final Summary frame reflects every
// frame the worker processed (every acknowledged frame in particular), then
// the writer closes the connection.
func (sess *session) emitSummary(drained bool) {
	if drained {
		sess.srv.m.drains.Inc()
	}
	// The Done/drain job is the last the worker runs for this session, so
	// its retained tuner history can be released here, on the owning worker.
	if sess.hist != nil {
		sess.hist.Release()
	}
	res := sess.kern.Result()
	sum := Summary{
		Session:      sess.id,
		Benchmark:    sess.hello.Benchmark,
		Predictor:    sess.predName,
		Frames:       sess.frames,
		Records:      sess.records,
		Executed:     res.Executed,
		Misses:       res.Misses,
		NoPrediction: res.NoPrediction,
		Warmup:       res.Warmup,
		MissRate:     res.MissRate(),
		Drained:      drained,
	}
	sess.srv.cfg.Log.Info("session summary", "session", sess.id,
		"benchmark", sum.Benchmark, "frames", sum.Frames, "records", sum.Records,
		"executed", sum.Executed, "misses", sum.Misses, "missRate", sum.MissRate,
		"drained", drained)
	sess.srv.unregister(sess)
	sess.send(OutFrame{Type: FrameSummary, Payload: marshalJSON(sum), Final: true})
}
