package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/trace"
)

// Router-originated error codes, in the serve.WireError code namespace.
const (
	// CodeNoBackend: no placeable backend accepted the session.
	CodeNoBackend = "no-backend"
	// CodeFailoverLost: the backend died and the journal had already
	// evicted part of the session prefix, so a lossless replay is
	// impossible. The router fails the session honestly instead of
	// resuming with corrupted predictor state.
	CodeFailoverLost = "failover-lost"
)

// errSessionOver is connect's signal that the session already received its
// final frame (a deterministic backend rejection was relayed).
var errSessionOver = errors.New("cluster: session over")

// outFrame is one frame queued for the client writer. buf, when non-nil, is
// the payload's pooled buffer; the writer releases it once the bytes are
// batched. final marks the session's last frame; the writer closes the
// connection after flushing it.
type outFrame struct {
	typ     uint64
	payload []byte
	buf     *trace.PooledBuf
	// span, when non-nil, rides with a relayed ack: the writer stamps its
	// ack-relay hop after the flush that carried it, feeds the frame-latency
	// histogram, and publishes it to the flight recorder.
	span  *flight.Span
	final bool
}

// proxySession is one client connection routed through the cluster. Three
// goroutines run it:
//
//   - the reader (handleConn's goroutine) parses client frames, journals
//     records payloads, and flags Done or client loss;
//   - the writer drains out to the client connection, batching frames per
//     flush like serve's session writer;
//   - the forwarder owns backend placement: it dials a backend, then pumps —
//     a sender streaming journal frames forward and a receiver relaying
//     acks/events back — and on backend death loops around to a survivor,
//     replaying the journaled prefix.
//
// Correctness hinges on the journal invariant (see trace.FrameLog): as long
// as the complete prefix is retained, a replacement backend that replays
// frames 1..max through a fresh predictor reaches bit-identical state, because
// prediction is deterministic in the record stream. The relayedThrough
// watermark suppresses the duplicate acks/events a replay produces, so the
// client sees each seq acknowledged exactly once.
type proxySession struct {
	id     uint64
	r      *Router
	conn   net.Conn
	hello  serve.Hello
	window int // granted client window

	// tracer mints a flight span per journaled frame; nil when tracing is
	// off. spans (guarded by mu, nil when tracing is off) holds each
	// frame's span from journal append until its ack is relayed — stamps
	// from the reader, sender, and receiver goroutines all happen under mu,
	// and the hand-off to the writer rides the out channel.
	tracer *flight.Tracer
	spans  map[uint64]*flight.Span
	// track is this session's stats entry in the router's introspection
	// registry: journal bytes, relayed-ack counters, placement and
	// failover/replay state. Set before the goroutines start.
	track *sessiontrack.Session

	mu         sync.Mutex
	j          *trace.FrameLog
	done       bool // client sent Done
	clientGone bool // client connection failed before Done
	placed     bool
	placedPC   uint32
	curConn    io.Closer // live backend client (for Router.Close kicks)

	// relayedThrough is the highest ack seq relayed to the client; acks and
	// events at or below it are replay duplicates and are suppressed.
	relayedThrough atomic.Uint64

	notify chan struct{} // collapsed reader→forwarder signal
	out    chan outFrame // writer queue
	closed chan struct{}
	close1 sync.Once

	finalQueued atomic.Bool // a final frame has been queued (exactly-once)
	dropped     atomic.Bool // counted in router_sessions_dropped_total

	// Owned by the forwarder/sender chain (attempts are sequenced by
	// wg.Wait, which establishes happens-before between them).
	maxSent   uint64 // highest seq ever sent to any backend
	failovers int
	replayed  atomic.Int64 // frames re-sent during replays
}

func (sess *proxySession) signal() {
	select {
	case sess.notify <- struct{}{}:
	default:
	}
}

func (sess *proxySession) isClosed() bool {
	select {
	case <-sess.closed:
		return true
	default:
		return false
	}
}

// close tears the session down: wakes the writer (which owns closing the
// client connection), severs the live backend connection, and unregisters.
// Idempotent; safe from any goroutine.
func (sess *proxySession) close() {
	sess.close1.Do(func() {
		close(sess.closed)
		sess.mu.Lock()
		bc := sess.curConn
		sess.mu.Unlock()
		if bc != nil {
			bc.Close()
		}
		sess.r.unregister(sess)
	})
}

// Drain and Kill implement sessiontrack.Conn. A router drain lets proxy
// sessions run to completion (the journal guarantees nothing is lost), so
// Drain is deliberately a no-op; Kill is the hard teardown.
func (sess *proxySession) Drain() {}
func (sess *proxySession) Kill()  { sess.close() }

// setCurConn records the live backend connection so close (and backend
// kicks) can sever it. If the session already closed, the new connection is
// severed immediately.
func (sess *proxySession) setCurConn(c io.Closer) {
	sess.mu.Lock()
	sess.curConn = c
	sess.mu.Unlock()
	if c != nil && sess.isClosed() {
		c.Close()
	}
}

// replayable reports whether the journal still holds the complete prefix.
func (sess *proxySession) replayable() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.j.Complete()
}

// markDropped counts the session once in router_sessions_dropped_total.
func (sess *proxySession) markDropped() {
	if sess.dropped.CompareAndSwap(false, true) {
		sess.r.m.sessionsDropped.Inc()
	}
}

// relay queues a frame for the client, blocking for backpressure. buf is the
// payload's pooled buffer (nil for unpooled payloads): on success its
// reference moves to the writer, on failure relay releases it. It returns
// false when the session closed (or a final frame already went out and this
// one is final too).
func (sess *proxySession) relay(typ uint64, payload []byte, buf *trace.PooledBuf, sp *flight.Span, final bool) bool {
	if final && !sess.finalQueued.CompareAndSwap(false, true) {
		buf.Release()
		return false
	}
	select {
	case sess.out <- outFrame{typ: typ, payload: payload, buf: buf, span: sp, final: final}:
		return true
	case <-sess.closed:
		buf.Release()
		return false
	}
}

// failClient ends the session with a WireError, if no final frame went out
// yet. Non-blocking: a client that stopped reading gets a hard close.
func (sess *proxySession) failClient(code, msg string) {
	if !sess.finalQueued.CompareAndSwap(false, true) {
		return
	}
	sess.markDropped()
	sess.r.log.Warn("session failed", "session", sess.id, "code", code, "err", msg)
	payload, _ := json.Marshal(&serve.WireError{Code: code, Msg: msg})
	select {
	case sess.out <- outFrame{typ: serve.FrameError, payload: payload, final: true}:
	default:
		sess.close()
	}
}

// writeLoop drains out to the client connection, mirroring serve's batched
// session writer: every queued frame joins the current flush, and the whole
// batch goes out in one vectored write — relayed backend frames (acks,
// events) are forwarded from their borrowed buffers without re-encoding, and
// the batcher releases each buffer once its bytes are out. It owns the
// client connection's close — after a final frame's flush, or on session
// close (draining anything already queued first, so an early close cannot
// drop a queued Summary).
func (sess *proxySession) writeLoop() {
	defer sess.r.connWG.Done()
	var fb trace.FrameBatcher
	// Spans riding the current batch: stamped with one clock read after the
	// flush that actually put their acks on the wire, then published.
	var spans []*flight.Span
	add := func(m outFrame) {
		fb.Add(m.typ, m.payload, m.buf)
		if m.span != nil {
			spans = append(spans, m.span)
		}
	}
	flush := func() error {
		sess.conn.SetWriteDeadline(time.Now().Add(sess.r.cfg.WriteTimeout))
		err := fb.Flush(sess.conn)
		if len(spans) > 0 {
			if err == nil {
				now := time.Now().UnixNano()
				for _, sp := range spans {
					sp.StampAt(flight.HopRouterAckRelay, now)
					if recvNS := sp.HopNS(flight.HopRouterRecv); recvNS > 0 {
						sess.r.m.frameLatency.Observe(time.Duration(now - recvNS))
					}
					sp.Finish()
				}
			}
			clear(spans)
			spans = spans[:0]
		}
		return err
	}
	// drainReleases returns late stragglers' buffers to the pool after the
	// session is over (best-effort: a relay racing close may still enqueue).
	drainRelease := func() {
		for {
			select {
			case m := <-sess.out:
				m.buf.Release()
			default:
				return
			}
		}
	}
	finish := func() {
		flush()
		sess.conn.Close()
		sess.close()
		drainRelease()
	}
	for {
		select {
		case m := <-sess.out:
			final := m.final
			add(m)
			for !final {
				select {
				case n := <-sess.out:
					add(n)
					final = n.final
					continue
				default:
				}
				break
			}
			if final {
				finish()
				return
			}
			if err := flush(); err != nil {
				sess.conn.Close()
				sess.close()
				drainRelease()
				return
			}
		case <-sess.closed:
			// Deliver anything already queued before closing.
			for {
				select {
				case m := <-sess.out:
					add(m)
					continue
				default:
				}
				break
			}
			flush()
			sess.conn.Close()
			return
		}
	}
}

// readLoop parses client frames until Done, a protocol violation, or client
// loss. Records payloads are journaled verbatim and stay in their borrowed
// frame buffers end to end: the journal takes over each frame's pool
// reference, and the sender forwards the same bytes to the backend.
func (sess *proxySession) readLoop(fr *trace.FrameReader) {
	r := sess.r
	var nextSeq uint64
	for {
		if sess.isClosed() {
			return
		}
		sess.conn.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout))
		f, err := fr.Next()
		if err != nil {
			sess.mu.Lock()
			done := sess.done
			if !done {
				sess.clientGone = true
			}
			sess.mu.Unlock()
			if !done && !sess.isClosed() {
				sess.markDropped()
				r.log.Warn("client connection lost", "session", sess.id, "err", err)
			}
			sess.signal()
			return
		}
		switch f.Type {
		case serve.FrameRecords:
			seq, n := binary.Uvarint(f.Payload)
			if n <= 0 {
				f.Release()
				sess.failClient(serve.CodeBadFrame, "records frame without seq")
				return
			}
			if seq != nextSeq+1 {
				f.Release()
				sess.failClient(serve.CodeBadSeq, fmt.Sprintf("frame seq %d, want %d", seq, nextSeq+1))
				return
			}
			nextSeq = seq
			if seq-sess.relayedThrough.Load() > uint64(sess.window)+1 {
				f.Release()
				sess.failClient(serve.CodeOverLimit, fmt.Sprintf("more than %d frames in flight", sess.window))
				return
			}
			sess.mu.Lock()
			if !sess.placed {
				// Placement key: the first record's PC. The peek reads one
				// field; only a chunk it cannot parse gets the full decode,
				// for the decoder's exact verdict (an empty chunk is legal
				// and places by pc 0).
				if pc, ok := trace.PeekFirstPC(f.Payload[n:]); ok {
					sess.placedPC = pc
				} else if _, derr := trace.DecodeRecords(f.Payload[n:], r.cfg.MaxFrameRecords); derr != nil {
					sess.mu.Unlock()
					f.Release()
					sess.failClient(serve.CodeBadFrame, derr.Error())
					return
				}
				sess.placed = true
			}
			// The journal takes over the frame's buffer reference.
			jerr := sess.j.Append(seq, f.Payload, f.Buffer())
			if jerr == nil && sess.spans != nil {
				sp := sess.tracer.Start(seq)
				sp.Stamp(flight.HopRouterRecv)
				sess.spans[seq] = sp
			}
			sess.mu.Unlock()
			if jerr != nil {
				f.Release()
				sess.failClient(serve.CodeBadSeq, jerr.Error())
				return
			}
			r.m.frames.Inc()
			r.m.journalBytes.Add(float64(len(f.Payload)))
			sess.track.JournalDelta(int64(len(f.Payload)))
			// Window occupancy from the seq/watermark distance — the proxy
			// does not count acks symmetrically, it observes the gap.
			sess.track.SetInflight(int32(seq - sess.relayedThrough.Load()))
			sess.signal()
		case serve.FrameDone:
			f.Release()
			sess.mu.Lock()
			sess.done = true
			sess.mu.Unlock()
			sess.signal()
			return
		default:
			// Ignore unknown client frame types for forward compatibility,
			// like serve's session reader.
			f.Release()
		}
	}
}

// awaitPlacement blocks until the session has a placement key (first records
// frame decoded), the client finished an empty session (Done with no
// records: place by pc 0), or there is nothing left to do.
func (sess *proxySession) awaitPlacement() (pc uint32, ok bool) {
	for {
		sess.mu.Lock()
		placed, done, gone := sess.placed, sess.done, sess.clientGone
		pc = sess.placedPC
		sess.mu.Unlock()
		switch {
		case placed:
			return pc, true
		case done:
			return 0, true
		case gone:
			return 0, false
		}
		select {
		case <-sess.notify:
		case <-sess.closed:
			return 0, false
		}
	}
}

// forward owns the session's backend side: place, pump, and on backend loss
// fail over — dial the next ring candidate and replay the journaled prefix.
func (sess *proxySession) forward() {
	defer sess.r.connWG.Done()
	defer func() {
		// If a final frame is queued the writer finishes and closes; a
		// session ending without one (client loss) is torn down here.
		if !sess.finalQueued.Load() {
			sess.close()
		}
	}()
	pc, ok := sess.awaitPlacement()
	if !ok {
		return
	}
	var avoid *backend
	for {
		if sess.isClosed() {
			return
		}
		b, bc, err := sess.r.connectSession(sess, pc, avoid)
		if err == errSessionOver {
			return
		}
		if err != nil {
			sess.failClient(CodeNoBackend, fmt.Sprintf("no backend accepted the session: %v", err))
			return
		}
		sess.track.SetBackend(b.addr)
		res := sess.pump(b, bc)
		bc.Close()
		b.detach(sess)
		sess.setCurConn(nil)
		if res == pumpTerminal {
			return
		}
		// Backend lost mid-session. Replay onto a survivor if the journal
		// still holds the complete prefix.
		if sess.isClosed() {
			return
		}
		sess.mu.Lock()
		replayOK := sess.j.Complete()
		gone := sess.clientGone && !sess.done
		sess.mu.Unlock()
		if gone {
			return // client vanished too; nothing to preserve
		}
		if !replayOK {
			sess.r.m.replayLost.Inc()
			sess.track.SetReplayable(false)
			sess.failClient(CodeFailoverLost,
				"backend lost after journal eviction; lossless replay impossible")
			return
		}
		sess.failovers++
		sess.track.Failover()
		sess.r.m.failovers.Inc()
		sess.r.log.Info("session failover", "session", sess.id,
			"from", b.addr, "failovers", sess.failovers)
		avoid = b
	}
}

type pumpResult int

const (
	pumpTerminal pumpResult = iota // session finished (final frame queued) or client gone
	pumpRetry                      // backend lost; fail over
)

// pump runs one backend attempt: a sender goroutine streams journal frames
// (from seq 1 — a replay on every attempt after the first) and Done, while
// the receiver relays acks and events past the relayedThrough watermark and
// terminates on the backend's Summary or WireError.
func (sess *proxySession) pump(b *backend, bc *serve.Client) pumpResult {
	r := sess.r
	window := bc.Session().Window
	if window < 1 {
		window = 1
	}
	// Every attempt after the first starts by replaying the journal prefix.
	if sess.maxSent > 0 {
		sess.track.SetState(sessiontrack.StateReplaying)
	} else {
		sess.track.SetState(sessiontrack.StateActive)
	}
	// Backend-side in-flight window, released one slot per ack received.
	sem := make(chan struct{}, window)
	abort := make(chan struct{})
	var abortOnce sync.Once
	stopSender := func() { abortOnce.Do(func() { close(abort) }) }
	defer stopSender()

	var senderSawGone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // sender
		defer wg.Done()
		next := uint64(1)
		for {
			sess.mu.Lock()
			payload, pbuf := sess.j.Get(next)
			doneAll := sess.done && next > sess.j.Max()
			gone := sess.clientGone && !sess.done
			// The journal's reference can be evicted the moment the lock
			// drops; a private one keeps the bytes alive across the write.
			pbuf.Retain()
			sess.mu.Unlock()
			switch {
			case payload != nil:
				select {
				case sem <- struct{}{}:
				case <-abort:
					pbuf.Release()
					return
				case <-sess.closed:
					pbuf.Release()
					return
				}
				if next <= sess.maxSent {
					sess.replayed.Add(1)
					sess.track.ReplayedFrames(1)
					r.m.replayedFrames.Inc()
				} else {
					sess.maxSent = next
					// First fresh frame after a replay: caught up.
					sess.track.SetState(sessiontrack.StateActive)
					// First send only: a failover replay keeps the original
					// relay stamp, so the span's relay→ack gap covers the
					// whole outage rather than the last attempt.
					if sess.spans != nil {
						sess.mu.Lock()
						sess.spans[next].Stamp(flight.HopRouterRelay)
						sess.mu.Unlock()
					}
				}
				err := bc.WriteFrame(serve.FrameRecords, payload)
				if err == nil {
					err = bc.Flush()
				}
				pbuf.Release()
				if err != nil {
					return // receiver sees the conn error
				}
				next++
			case doneAll:
				bc.WriteFrame(serve.FrameDone, nil)
				bc.Flush()
				return
			case gone:
				// No Summary is coming from the client's perspective; wake
				// the receiver out of its read so the attempt ends.
				senderSawGone.Store(true)
				bc.Close()
				return
			default:
				select {
				case <-sess.notify:
				case <-abort:
					return
				case <-sess.closed:
					return
				}
			}
		}
	}()

	result := pumpRetry
recv:
	for {
		f, err := bc.ReadFrame(0)
		if err != nil {
			if senderSawGone.Load() || sess.isClosed() {
				result = pumpTerminal
			} else {
				b.noteSessionError(r)
				result = pumpRetry
			}
			break recv
		}
		switch f.Type {
		case serve.FrameAck:
			// The full decode (7 uvarints, no allocation) gives the proxy
			// session the acked frame's per-frame counts — the router's
			// introspection view carries real miss/throughput windows, not
			// just byte counters.
			ack, aerr := serve.DecodeAck(f.Payload)
			if aerr != nil {
				f.Release()
				b.noteSessionError(r)
				break recv // corrupt ack; treat as backend loss
			}
			seq := ack.Seq
			select {
			case <-sem:
			default:
			}
			sess.mu.Lock()
			evFrames, evBytes := sess.j.Ack(seq)
			jmax := sess.j.Max()
			var sp *flight.Span
			if sess.spans != nil {
				if sp = sess.spans[seq]; sp != nil {
					delete(sess.spans, seq)
					sp.Stamp(flight.HopRouterAckRecv)
					if relayNS := sp.HopNS(flight.HopRouterRelay); relayNS > 0 {
						r.m.backendRTT.Observe(time.Duration(sp.HopNS(flight.HopRouterAckRecv) - relayNS))
					}
				}
			}
			sess.mu.Unlock()
			if evFrames > 0 {
				r.m.journalEvicted.Add(uint64(evFrames))
				r.m.journalBytes.Add(-float64(evBytes))
				sess.track.JournalDelta(-int64(evBytes))
				// Evicting acknowledged prefix forfeits lossless failover.
				sess.track.SetReplayable(false)
			}
			if seq > sess.relayedThrough.Load() {
				// The ack payload relays as-is; its buffer reference moves
				// to the client writer, and the span rides along for its
				// ack-relay stamp.
				if !sess.relay(serve.FrameAck, f.Payload, f.Buffer(), sp, false) {
					result = pumpTerminal
					break recv
				}
				sess.relayedThrough.Store(seq)
				sess.track.AckRelayed(time.Now().UnixNano(), ack.Records, ack.Executed, ack.Misses)
				if jmax >= seq {
					sess.track.SetInflight(int32(jmax - seq))
				}
				r.m.acksRelayed.Inc()
			} else {
				f.Release() // replay duplicate, suppressed
			}
		case serve.FrameEvents:
			// Events for a frame precede its ack, so the ack watermark also
			// identifies replay-duplicate event frames.
			seq, n := binary.Uvarint(f.Payload)
			if n > 0 && seq > sess.relayedThrough.Load() {
				if !sess.relay(serve.FrameEvents, f.Payload, f.Buffer(), nil, false) {
					result = pumpTerminal
					break recv
				}
			} else {
				f.Release()
			}
		case serve.FrameSummary:
			var sum serve.Summary
			uerr := json.Unmarshal(f.Payload, &sum)
			f.Release()
			if uerr != nil {
				b.noteSessionError(r)
				break recv
			}
			sess.mu.Lock()
			done := sess.done
			sess.mu.Unlock()
			if sum.Drained || !done {
				// The backend drained (its own SIGTERM) before the session
				// finished: its summary covers only a prefix. Discard it
				// and migrate — the replay makes the cut invisible.
				break recv
			}
			sum.Session = sess.id
			sum.Router = &serve.RouterInfo{
				Backend:        b.addr,
				Failovers:      sess.failovers,
				ReplayedFrames: int(sess.replayed.Load()),
			}
			payload, _ := json.Marshal(sum)
			sess.relay(serve.FrameSummary, payload, nil, nil, true)
			result = pumpTerminal
			break recv
		case serve.FrameError:
			var we serve.WireError
			if json.Unmarshal(f.Payload, &we) != nil || we.Code == serve.CodeOverload {
				// Overload is a transient shed: another backend may accept.
				f.Release()
				break recv
			}
			// Deterministic rejection — a replay would fail identically, so
			// relay the backend's verdict as the session's final frame.
			sess.markDropped()
			sess.relay(serve.FrameError, f.Payload, f.Buffer(), nil, true)
			result = pumpTerminal
			break recv
		default:
			f.Release()
		}
	}
	stopSender()
	bc.Close() // wakes a sender blocked in a write
	wg.Wait()
	return result
}
