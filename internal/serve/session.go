package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
)

// session is one client connection's state. The connection's own goroutine,
// after the FrontEnd handshake, reads each frame, runs it through the
// predictor and adds its replies to the session's batch before it reads the
// next, so it owns the predictor, the accounting and the connection's write
// side. The batch is flushed before each read system call that could block.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	hello    Hello
	predName string
	events   bool
	// tracer mints each records frame's span, its one stamp set; nil when
	// tracing is off, and the stamps are taken all the same. Set before the
	// session is registered, read-only after.
	tracer *flight.Tracer
	// track is the session's stats entry in the introspection registry,
	// updated once per frame from the frame's stamps. Set before the
	// session is registered, read-only after.
	track *sessiontrack.Session

	// shared
	killed   atomic.Bool
	draining atomic.Bool

	// session-owned: the reply batch, the last frame seq, the prediction
	// kernel (predictor and sim accounting), and evs, the kernel's event
	// output for the frame in progress.
	w       Writer
	nextSeq uint64
	kern    *sim.Kernel
	frames  int
	records int
	evs     eventLog

	// tun is the session's adaptation-plane state (nil when tuning is off),
	// fed by kern as its miss observer. hist (non-nil exactly when tun is)
	// retains the session's processed record chunks in their pooled frame
	// buffers for the swap replay, within the policy's histmax budget.
	// Session-owned like the kernel, so a hot swap needs no locks.
	tun  *tuner.SessionTuner
	hist *trace.FrameLog
}

func newSession(s *Server, conn net.Conn, pred core.Predictor, hello Hello) *session {
	sess := &session{
		srv:      s,
		conn:     conn,
		hello:    hello,
		kern:     sim.NewKernel(pred, sim.Options{Warmup: hello.Warmup}),
		predName: pred.Name(),
		events:   hello.Events,
	}
	sess.w = Writer{
		Conn:      conn,
		Timeout:   s.cfg.WriteTimeout,
		Publish:   sess.publish,
		BatchSize: s.m.ackBatchSize,
		FlushTime: s.m.ackFlush,
	}
	if sess.events {
		sess.kern.SetEvents(&sess.evs)
	}
	return sess
}

// end finishes the session: it leaves the live set, its final frame (when
// final is non-nil) leaves with whatever replies are still batched, and the
// connection closes.
func (sess *session) end(typ uint64, final []byte) {
	sess.srv.unregister(sess)
	if final != nil {
		sess.w.Add(typ, final, nil)
	}
	sess.w.Flush()
	sess.conn.Close()
}

// fail ends the session with a WireError. The session counts as dropped (it
// will never get a Summary).
func (sess *session) fail(code, msg string) {
	sess.srv.m.sessionsDropped.Inc()
	sess.srv.cfg.Log.Warn("session dropped", "session", sess.id, "code", code, "err", msg)
	sess.end(FrameError, marshalJSON(&WireError{Code: code, Msg: msg}))
}

// Drain implements sessiontrack.Conn's graceful drain: it marks the session
// draining and kicks it off the socket (an immediate read deadline). The
// session has already predicted every frame it read, so it writes the
// final summary at once, and everything acknowledged lands in it.
func (sess *session) Drain() {
	sess.draining.Store(true)
	sess.conn.SetReadDeadline(time.Now())
}

// Kill implements sessiontrack.Conn's hard close (forced shutdown): the
// connection closes, and the session ends without ceremony at its next read
// or flush.
func (sess *session) Kill() {
	sess.killed.Store(true)
	sess.conn.Close()
}

// Retune implements sessiontrack.Retuner: the /sessions/{id}/retune admin
// verb forces a tuner decision at the session's next frame boundary.
func (sess *session) Retune() bool { return sess.tun.Retune() }

// publish is the one place a frame's stamps go, once its ack is on the
// wire: the frame histograms, the session's stats and the flight recorder.
// A frame whose ack never flushes (the session shed, killed or cut first)
// counts in serve_frames_total but reaches none of them.
func (sess *session) publish(a Ack, sp *flight.Span, flushedNS int64) {
	sp.StampAt(flight.HopServerAckWrite, flushedNS)
	wait := sp.Between(flight.HopServerRecv, flight.HopServerDequeue)
	m := sess.srv.m
	m.queueWait.Observe(wait)
	m.predictTime.Observe(sp.Between(flight.HopServerDequeue, flight.HopServerPredict))
	m.frameLatency.Observe(sp.Between(flight.HopServerRecv, flight.HopServerPredict))
	sess.track.FrameAcked(flushedNS, a.Records, a.Executed, a.Misses, wait)
	sp.Finish()
}

// readLoop reads client frames and predicts each before it reads the next,
// until Done, drain, or failure; then it ends the session. Its reads go
// through the session's Conn, which flushes the batched replies before each
// read system call.
func (sess *session) readLoop(fr *trace.FrameReader) {
	s := sess.srv
	for {
		if sess.draining.Load() {
			break
		}
		sess.conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		// Re-check after arming the deadline: Drain sets the draining
		// flag before it sets its immediate deadline, so whichever deadline
		// write lands last, either this check breaks or the read times out
		// at once — the reader can never sleep a full ReadTimeout into a
		// drain.
		if sess.draining.Load() {
			break
		}
		f, err := fr.Next()
		if err != nil {
			switch {
			case sess.draining.Load():
				sess.emitSummary(true)
			case sess.killed.Load():
				sess.end(0, nil)
			case sess.w.err != nil:
				sess.fail(CodeOverload, fmt.Sprintf("write: %v", sess.w.err))
			case err == io.EOF:
				sess.fail(CodeBadFrame, "client closed before Done")
			default:
				sess.fail(CodeBadFrame, err.Error())
			}
			return
		}
		switch f.Type {
		case FrameRecords:
			// The reader peels the sequence number; processFrame validates
			// the chunk while it iterates the borrowed payload in place.
			seq := sess.nextSeq + 1
			chunk, we := SplitRecordsFrame(f.Payload, seq)
			if we != nil {
				f.Release()
				sess.fail(we.Code, we.Msg)
				return
			}
			sess.nextSeq = seq
			if we := sess.processFrame(seq, chunk, f.Buffer()); we != nil {
				sess.fail(we.Code, we.Msg)
				return
			}
		case FrameDone:
			f.Release()
			sess.emitSummary(false)
			return
		default:
			// Unknown-but-checksummed client frame: skip it, mirroring the
			// trace format's forward-compatibility rule.
			f.Release()
		}
	}
	sess.emitSummary(true)
}

// processFrame runs the session kernel (DESIGN.md §5b) straight off a
// RecordIter over the borrowed chunk while holding a predictor slot, adds
// the frame's replies to the batch and releases the chunk's buffer. It
// writes nothing, so a client slow to read never holds a slot. A predictor
// panic is confined to this session, like a sim lane's, and returned as
// its verdict.
func (sess *session) processFrame(seq uint64, chunk []byte, buf *trace.PooledBuf) (we *WireError) {
	s := sess.srv
	m := s.m
	// One clock read per frame (amortized over its ~thousands of records)
	// is both its receive and its enqueue stamp; the dequeue stamp is taken
	// with the slot, so the wait for a slot is the enqueue→dequeue gap.
	sp := sess.tracer.Start(seq)
	recvNS := time.Now().UnixNano()
	sp.StampAt(flight.HopServerRecv, recvNS)
	sp.StampAt(flight.HopServerEnqueue, recvNS)
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	defer buf.Release()
	defer func() {
		if r := recover(); r != nil {
			m.panics.Inc()
			we = &WireError{Code: CodePredictor, Msg: fmt.Sprintf("predictor panicked: %v\n%s", r, debug.Stack())}
		}
	}()
	sp.StampAt(flight.HopServerDequeue, time.Now().UnixNano())
	before := sess.kern.Result()
	nrecs, err := runChunk(sess.kern, chunk, s.cfg.MaxFrameRecords)
	if err != nil {
		// The predictor may already have seen the frame's valid prefix, but a
		// session that ships a malformed chunk never reaches a Summary, so
		// the bit-identical accounting contract is unaffected.
		return &WireError{Code: CodeBadFrame, Msg: err.Error()}
	}
	res := sess.kern.Result()
	executed, misses := res.Executed-before.Executed, res.Misses-before.Misses
	sess.frames++
	sess.records += nrecs
	sp.StampAt(flight.HopServerPredict, time.Now().UnixNano())
	sp.SetRecords(nrecs)
	// The (allocating) table stats refresh is amortized to every 16th
	// frame — the predictor is session-owned, so only this goroutine may
	// read it.
	if sess.frames&0xf == 0 {
		sess.updateTables()
	}
	m.frames.Inc()
	m.records.Add(uint64(nrecs))
	m.misses.Add(uint64(misses))
	sess.reply(Ack{
		Seq:               seq,
		Records:           nrecs,
		Executed:          executed,
		Misses:            misses,
		TotalExecuted:     res.Executed,
		TotalMisses:       res.Misses,
		TotalNoPrediction: res.NoPrediction,
	}, sp)
	m.acks.Inc()
	// The frame boundary is the tuner's only legal act point; the ack above
	// still carries the pre-swap totals, the next one reflects the replayed
	// accounting.
	if sess.tun != nil {
		sess.tunerFrameEnd(seq, chunk, buf, executed, misses)
	}
	return nil
}

// reply adds a processed frame's replies to the batch: its events, from a
// pooled payload buffer, then its ack, whose span the flush that writes it
// publishes.
func (sess *session) reply(ack Ack, sp flight.Span) {
	if sess.events {
		// Worst case per event: three 5-byte varints plus the flags byte.
		eb := sess.srv.pool.Get(16*len(sess.evs) + 2*binary.MaxVarintLen64)
		sess.w.Add(FrameEvents, appendEvents(eb.Bytes()[:0], ack.Seq, sess.evs), eb)
		sess.evs = sess.evs[:0] // keep the grown buffer for the next frame
	}
	sess.w.Ack(ack, sp)
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

// emitSummary ends the session with its Summary, which reflects every frame
// the session processed (every acknowledged frame in particular).
func (sess *session) emitSummary(drained bool) {
	if drained {
		sess.srv.m.drains.Inc()
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
	sess.end(FrameSummary, marshalJSON(sum))
}
