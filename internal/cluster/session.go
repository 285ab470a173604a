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
//   - the forwarder owns the backend side: it dials a backend at once, then
//     receives — relaying acks and events into the client batch, which it
//     flushes before it waits on the backend — and on backend death loops
//     around to a survivor, replaying the journaled prefix;
//   - the sender, one per backend attempt, streams journal frames forward,
//     flushing them before it waits for a window slot or the next frame.
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

	// ctx ends with the session: close cancels it, and the backend dials
	// run on it, so a dial waiting on a silent backend stops there.
	ctx    context.Context
	cancel context.CancelFunc

	// tracer mints each journaled frame's span, its one stamp set; nil when
	// tracing is off, and the stamps are taken all the same.
	tracer *flight.Tracer
	// track is this session's stats entry in the router's introspection
	// registry: journal bytes, relayed-ack counters, placement and
	// failover/replay state. Set before the session is registered.
	track *sessiontrack.Session

	// wmu guards the client batch: the forwarder relays into it, and
	// whoever ends the session writes its final frame through it and closes
	// the session under wmu, so nothing leaves after that frame. No
	// goroutine takes wmu while it holds mu.
	wmu sync.Mutex
	w   serve.Writer

	mu sync.Mutex
	j  *trace.FrameLog
	// spans holds each frame's span, at seq modulo its length, from the
	// journal append until the first ack for it arrives: the reader, the
	// sender and the receiver stamp it under mu, and the ack carries it into
	// the client batch, whose flush publishes it.
	spans      []flight.Span
	done       bool      // client sent Done
	clientGone bool      // client connection failed before Done
	curConn    io.Closer // live backend client (for Router.Close kicks)

	// relayedThrough is the highest ack seq relayed to the client; acks and
	// events at or below it are replay duplicates and are suppressed.
	relayedThrough atomic.Uint64

	notify chan struct{} // collapsed reader→forwarder signal
	closed chan struct{}
	close1 sync.Once

	dropped atomic.Bool // counted in router_sessions_dropped_total

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

// close tears the session down: closes the client connection, ends any
// backend dial, severs the live backend connection, and unregisters.
// Idempotent; safe from any goroutine that does not hold mu.
func (sess *proxySession) close() {
	sess.close1.Do(func() {
		close(sess.closed)
		sess.cancel()
		sess.conn.Close()
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

// flushClient writes the batch to the client; a failed write (the client
// gone, or not reading for WriteTimeout) closes the session.
func (sess *proxySession) flushClient() error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	err := sess.w.Flush()
	if err != nil {
		sess.close()
	}
	return err
}

// end writes the session's final frame, a Summary or an Error, behind what
// the batch holds and closes the session, unless it has closed already. It
// reports whether it wrote the frame; an Error it writes counts the session
// in router_sessions_dropped_total.
func (sess *proxySession) end(typ uint64, payload []byte, buf *trace.PooledBuf) bool {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if sess.isClosed() {
		buf.Release()
		return false
	}
	if typ == serve.FrameError {
		sess.markDropped()
	}
	sess.w.Add(typ, payload, buf)
	sess.w.Flush()
	sess.close()
	return true
}

// failClient ends the session with a WireError, if no final frame went out
// yet.
func (sess *proxySession) failClient(code, msg string) {
	payload, _ := json.Marshal(&serve.WireError{Code: code, Msg: msg})
	if sess.end(serve.FrameError, payload, nil) {
		sess.r.log.Warn("session failed", "session", sess.id, "code", code, "err", msg)
	}
}

// publish is the one place a relayed frame's stamps go, once its ack is on
// the client's wire: the frame histograms, the session's stats and the
// flight recorder.
func (sess *proxySession) publish(a serve.Ack, sp *flight.Span, flushedNS int64) {
	sp.StampAt(flight.HopRouterAckRelay, flushedNS)
	m := sess.r.m
	m.frameLatency.Observe(sp.Between(flight.HopRouterRecv, flight.HopRouterAckRelay))
	m.backendRTT.Observe(sp.Between(flight.HopRouterRelay, flight.HopRouterAckRecv))
	sess.track.FrameAcked(flushedNS, a.Records, a.Executed, a.Misses,
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
			// The seq is checked here, by serve's rule; the chunk is judged
			// by the backend that predicts it, whose verdict pump relays.
			seq := nextSeq + 1
			if _, we := serve.SplitRecordsFrame(f.Payload, seq); we != nil {
				f.Release()
				sess.failClient(we.Code, we.Msg)
				return
			}
			nextSeq = seq
			if seq-sess.relayedThrough.Load() > uint64(sess.window)+1 {
				f.Release()
				sess.failClient(serve.CodeOverLimit, fmt.Sprintf("more than %d frames in flight", sess.window))
				return
			}
			sess.mu.Lock()
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

// forward owns the session's backend side: dial the session's backend as it
// opens, pump, and on backend loss fail over — dial the next candidate and
// replay the journaled prefix.
func (sess *proxySession) forward() {
	defer sess.close() // a no-op after a final frame
	var avoid *backend
	for {
		if sess.isClosed() {
			return
		}
		b, bc, err := sess.r.connectSession(sess, avoid)
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
	pumpTerminal pumpResult = iota // session finished (final frame written) or client gone
	pumpRetry                      // backend lost; fail over
)

// pump runs one backend attempt: a sender goroutine streams journal frames
// (from seq 1 — a replay on every attempt after the first) and Done, while
// the receiver relays acks and events past the relayedThrough watermark and
// terminates on the backend's Summary or WireError. Each side flushes what
// it has batched before it waits: the sender before a window slot or the
// next journal frame, the receiver before a read from the backend.
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
	// Backend-side in-flight window: a token per free slot, back per ack.
	slots := make(chan struct{}, window)
	for range window {
		slots <- struct{}{}
	}
	abort := make(chan struct{}) // closed when the attempt ends

	// take receives a window slot or the reader's signal from ch, flushing
	// the frames written so far before it waits (the backend cannot ack what
	// has not left); false when the attempt ends first or the flush fails.
	take := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
		}
		if bc.Flush() != nil {
			return false
		}
		select {
		case <-ch:
			return true
		case <-abort:
		case <-sess.closed:
		}
		return false
	}
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
				if !take(slots) {
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
				pbuf.Release()
				if err != nil {
					return // receiver sees the conn error
				}
				next++
			case doneAll:
				if bc.WriteFrame(serve.FrameDone, nil) == nil {
					bc.Flush()
				}
				return
			case gone:
				// No Summary is coming from the client's perspective; wake
				// the receiver out of its read so the attempt ends.
				senderSawGone.Store(true)
				bc.Close()
				return
			default:
				if !take(sess.notify) {
					return
				}
			}
		}
	}()

	flush := sess.flushClient
	result := pumpRetry
recv:
	for {
		f, err := bc.ReadFrame(flush)
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
			f.Release() // the client batch re-encodes the ack in place
			if aerr != nil {
				break recv // corrupt ack; treat as backend loss
			}
			seq := ack.Seq
			select {
			case slots <- struct{}{}:
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
				sess.wmu.Lock()
				sess.w.Ack(ack, sp)
				sess.wmu.Unlock()
				sess.relayedThrough.Store(seq)
				if jmax >= seq {
					sess.track.SetInflight(int32(jmax - seq))
				}
				r.m.acksRelayed.Inc()
			}
		case serve.FrameEvents:
			// Events for a frame precede its ack, so the ack watermark also
			// identifies replay-duplicate event frames.
			seq, n := binary.Uvarint(f.Payload)
			if n > 0 && seq > sess.relayedThrough.Load() {
				sess.wmu.Lock()
				sess.w.Add(serve.FrameEvents, f.Payload, f.Buffer())
				sess.wmu.Unlock()
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
			sess.end(serve.FrameSummary, payload, nil)
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
			sess.end(serve.FrameError, f.Payload, f.Buffer())
			result = pumpTerminal
			break recv
		default:
			f.Release()
		}
	}
	close(abort)
	bc.Close() // wakes a sender blocked in a write
	wg.Wait()
	return result
}
