package cluster

import (
	"context"
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

// proxySession is one client connection routed through the cluster. Three
// goroutines run it:
//
//   - the reader (the connection's own, after the FrontEnd handshake)
//     parses client frames, journals records payloads, and flags Done or
//     client loss;
//   - the writer, serve's session Writer, drains out to the client
//     connection, batching frames per flush;
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

	// ctx ends with the session: close cancels it, and the placement
	// dials run on it, so a dial waiting on a silent backend stops there.
	ctx    context.Context
	cancel context.CancelFunc

	// tracer mints each journaled frame's span, its one stamp set; nil when
	// tracing is off, and the stamps are taken all the same.
	tracer *flight.Tracer
	// track is this session's stats entry in the router's introspection
	// registry: journal bytes, relayed-ack counters, placement and
	// failover/replay state. Set before the goroutines start.
	track *sessiontrack.Session

	mu sync.Mutex
	j  *trace.FrameLog
	// spans holds each frame's span, at seq modulo its length, from the
	// journal append until the first ack for it arrives: the reader, the
	// sender and the receiver stamp it under mu, and the ack's OutFrame
	// carries it to the writer.
	spans      []flight.Span
	done       bool // client sent Done
	clientGone bool // client connection failed before Done
	placed     bool
	placedPC   uint32
	curConn    io.Closer // live backend client (for Router.Close kicks)

	// relayedThrough is the highest ack seq relayed to the client; acks and
	// events at or below it are replay duplicates and are suppressed.
	relayedThrough atomic.Uint64

	notify chan struct{}       // collapsed reader→forwarder signal
	out    chan serve.OutFrame // writer queue
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

// span returns seq's slot in the span table. The caller holds mu.
func (sess *proxySession) span(seq uint64) *flight.Span {
	return &sess.spans[seq%uint64(len(sess.spans))]
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
// client connection), ends any placement dial, severs the live backend
// connection, and unregisters. Idempotent; safe from any goroutine.
func (sess *proxySession) close() {
	sess.close1.Do(func() {
		close(sess.closed)
		sess.cancel()
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

// markDropped counts the session once in router_sessions_dropped_total.
func (sess *proxySession) markDropped() {
	if sess.dropped.CompareAndSwap(false, true) {
		sess.r.m.sessionsDropped.Inc()
	}
}

// relay queues a frame for the client, blocking for backpressure. f.Buf is
// the payload's pooled buffer (nil for unpooled payloads): on success its
// reference moves to the writer, on failure relay releases it. It returns
// false when the session closed (or a final frame already went out and this
// one is final too).
func (sess *proxySession) relay(f serve.OutFrame) bool {
	if f.Final && !sess.finalQueued.CompareAndSwap(false, true) {
		f.Buf.Release()
		return false
	}
	select {
	case sess.out <- f:
		return true
	case <-sess.closed:
		f.Buf.Release()
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
	case sess.out <- serve.OutFrame{Type: serve.FrameError, Payload: payload, Final: true}:
	default:
		sess.close()
	}
}

// publish is the one place a relayed frame's stamps go, once its ack is on
// the client's wire: the frame histograms, the session's stats and the
// flight recorder.
func (sess *proxySession) publish(f *serve.OutFrame, flushedNS int64) {
	sp := &f.Span
	sp.StampAt(flight.HopRouterAckRelay, flushedNS)
	m := sess.r.m
	m.frameLatency.Observe(sp.Between(flight.HopRouterRecv, flight.HopRouterAckRelay))
	m.backendRTT.Observe(sp.Between(flight.HopRouterRelay, flight.HopRouterAckRecv))
	sess.track.FrameAcked(flushedNS, f.Ack.Records, f.Ack.Executed, f.Ack.Misses,
		sp.Between(flight.HopRouterRecv, flight.HopRouterRelay))
	sp.Finish()
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
			if jerr == nil {
				sp := sess.span(seq)
				*sp = sess.tracer.Start(seq)
				sp.StampAt(flight.HopRouterRecv, time.Now().UnixNano())
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
// fail over — dial the next candidate and replay the journaled prefix.
func (sess *proxySession) forward() {
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
					relayNS := time.Now().UnixNano()
					sess.mu.Lock()
					sess.span(next).StampAt(flight.HopRouterRelay, relayNS)
					sess.mu.Unlock()
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
				break recv // corrupt ack; treat as backend loss
			}
			seq := ack.Seq
			select {
			case <-sem:
			default:
			}
			// The first ack for seq is the one past the relayed watermark
			// (a backend acks in order; a replay re-acks what was relayed).
			// It takes the frame's span out of the table.
			first := seq > sess.relayedThrough.Load()
			sess.mu.Lock()
			evFrames, evBytes := sess.j.Ack(seq)
			jmax := sess.j.Max()
			var sp flight.Span
			if first {
				sp = *sess.span(seq)
			}
			sess.mu.Unlock()
			if evFrames > 0 {
				r.m.journalEvicted.Add(uint64(evFrames))
				r.m.journalBytes.Add(-float64(evBytes))
				sess.track.JournalDelta(-int64(evBytes))
				// Evicting acknowledged prefix forfeits lossless failover.
				sess.track.SetReplayable(false)
			}
			if first {
				sp.StampAt(flight.HopRouterAckRecv, time.Now().UnixNano())
				// The ack payload relays as-is; its buffer reference moves
				// to the client writer, which publishes the span after the
				// flush.
				if !sess.relay(serve.OutFrame{Type: serve.FrameAck, Payload: f.Payload, Buf: f.Buffer(), Ack: ack, Span: sp}) {
					result = pumpTerminal
					break recv
				}
				sess.relayedThrough.Store(seq)
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
				if !sess.relay(serve.OutFrame{Type: serve.FrameEvents, Payload: f.Payload, Buf: f.Buffer()}) {
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
			sess.relay(serve.OutFrame{Type: serve.FrameSummary, Payload: payload, Final: true})
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
			sess.relay(serve.OutFrame{Type: serve.FrameError, Payload: f.Payload, Buf: f.Buffer(), Final: true})
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
