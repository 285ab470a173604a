package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/trace"
)

// DialOptions controls connection establishment.
type DialOptions struct {
	// Timeout bounds each dial attempt, the handshake, each read or write
	// system call while Stream runs, and each WriteFrame and Flush.
	// Defaults to 30s.
	Timeout time.Duration
	// Retries is the number of re-dial attempts after a failed one.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per attempt
	// up to MaxBackoff. Defaults to 100ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff. Defaults to 2s.
	MaxBackoff time.Duration

	// sleep is the backoff sleeper, a test seam. The default honors
	// context cancellation mid-sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Backoff > o.MaxBackoff {
		o.Backoff = o.MaxBackoff
	}
	if o.sleep == nil {
		o.sleep = sleepContext
	}
	return o
}

// sleepContext sleeps for d or until ctx is cancelled, whichever comes
// first, returning ctx.Err() on cancellation.
func sleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter spreads d by ±20% so a fleet of clients (or a router's failover
// storm) does not retry in lockstep.
func jitter(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}

// clientPool backs every Client's frame payloads and encode buffers; shared
// process-wide so a fleet of connections (ibpload, the router) recycles one
// set of buffers.
var clientPool = trace.NewBufferPool()

// Client is one prediction session against an ibpserved instance. It is not
// safe for concurrent use; one Client drives one connection.
type Client struct {
	conn *streamConn
	fw   *trace.FrameWriter
	fr   *trace.FrameReader
	ack  HelloAck

	// OnEvents, when non-nil, receives the decoded per-branch outcomes of
	// every events frame (sessions opened with Hello.Events). Called from
	// Stream's receive goroutine. evs is reused for the next events frame,
	// so it is valid only during the call: copy what must outlive it.
	OnEvents func(seq uint64, evs []EventRec)

	// OnTiming, when non-nil, receives the client-side hop breakdown of
	// every acknowledged frame (window wait, write, round trip). Called from
	// Stream's receive goroutine.
	OnTiming func(FrameTiming)
}

// streamConn is a Client's connection. While stream is set, for as long as
// Stream owns the connection, it arms a fresh deadline (the dial timeout
// from now) before each read or write system call, so a window of small
// frames pays one deadline per call that reaches the socket, not one per
// frame. Otherwise WriteFrame and Flush arm their own deadlines, and the
// flush ReadFrame sets runs before each read system call.
type streamConn struct {
	flushConn
	timeout time.Duration
	stream  bool
}

func (c *streamConn) Read(p []byte) (int, error) {
	if c.stream {
		c.Conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
	return c.flushConn.Read(p)
}

func (c *streamConn) Write(p []byte) (int, error) {
	if c.stream {
		c.Conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	return c.Conn.Write(p)
}

// FrameTiming is the client-side hop breakdown of one streamed frame: where
// its wall time went before the server ever saw it, and the full round trip.
type FrameTiming struct {
	// Seq is the frame's sequence number.
	Seq uint64
	// WindowWait is the time from the end of the previous frame's write to
	// a free window slot, including the flush of the buffered frames that
	// Stream makes before it waits for one.
	WindowWait time.Duration
	// Write is the frame's encode and its write into the client's buffer;
	// the buffer leaves in the flush that WindowWait of a later frame, or
	// the end of the trace, counts.
	Write time.Duration
	// RTT is send → ack receipt. The send stamp is taken as the frame is
	// queued, so RTT includes up to one window of buffering in the client.
	RTT time.Duration
	// SentAt and AckedAt are the wall-clock endpoints of the round trip,
	// for fusing client-side spans with server flight-recorder dumps.
	SentAt  time.Time
	AckedAt time.Time
}

// sendInfo is the per-inflight-frame bookkeeping behind onAck and OnTiming.
type sendInfo struct {
	sent    time.Time
	winWait time.Duration
	write   time.Duration
}

// Dial connects, retrying with exponential backoff, and performs the
// Hello/HelloAck handshake. It is DialContext with a background context.
func Dial(addr string, hello Hello, o DialOptions) (*Client, error) {
	return DialContext(context.Background(), addr, hello, o)
}

// DialContext connects, retrying with capped, ±20%-jittered exponential
// backoff, and performs the Hello/HelloAck handshake. Cancelling ctx aborts
// the dial immediately, including mid-backoff; the returned error then
// matches ctx.Err(). A Hello the server rejects (a *WireError) is
// deterministic and short-circuits the retry loop.
func DialContext(ctx context.Context, addr string, hello Hello, o DialOptions) (*Client, error) {
	o = o.withDefaults()
	backoff := o.Backoff
	var lastErr error
	for attempt := 0; attempt <= o.Retries; attempt++ {
		if attempt > 0 {
			if err := o.sleep(ctx, jitter(backoff)); err != nil {
				if lastErr != nil {
					return nil, fmt.Errorf("serve: dial %s: %w (last attempt: %v)", addr, err, lastErr)
				}
				return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
			}
			backoff = min(backoff*2, o.MaxBackoff)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
		}
		d := net.Dialer{Timeout: o.Timeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		// The handshake waits in reads and writes that only its deadline
		// ends; closing the connection when ctx ends stops the wait for
		// a server that never answers.
		stop := context.AfterFunc(ctx, func() { conn.Close() })
		c, err := handshake(conn, hello, o.Timeout)
		if !stop() {
			conn.Close()
			return nil, fmt.Errorf("serve: dial %s: %w", addr, ctx.Err())
		}
		if err != nil {
			conn.Close()
			lastErr = err
			// A rejected Hello is deterministic; retrying cannot help.
			var we *WireError
			if errors.As(err, &we) {
				break
			}
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("serve: dial %s: %w", addr, lastErr)
}

// handshake sends the preamble and Hello, then waits for the HelloAck.
func handshake(conn net.Conn, hello Hello, timeout time.Duration) (*Client, error) {
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := conn.Write(append([]byte(Preamble), ProtocolVersion)); err != nil {
		return nil, err
	}
	sc := &streamConn{flushConn: flushConn{Conn: conn}, timeout: timeout}
	c := &Client{
		conn: sc,
		fw:   trace.NewFrameWriter(sc),
		fr:   trace.NewPooledFrameReader(sc, 1<<24, clientPool),
	}
	if err := c.fw.WriteFrame(FrameHello, marshalJSON(hello)); err != nil {
		return nil, err
	}
	if err := c.fw.Flush(); err != nil {
		return nil, err
	}
	f, err := c.fr.Next()
	if err != nil {
		return nil, fmt.Errorf("hello ack: %w", err)
	}
	defer f.Release()
	switch f.Type {
	case FrameHelloAck:
		if err := unmarshalPayload(f.Payload, &c.ack); err != nil {
			return nil, err
		}
	case FrameError:
		var we WireError
		if err := unmarshalPayload(f.Payload, &we); err != nil {
			return nil, err
		}
		return nil, &we
	default:
		return nil, fmt.Errorf("serve: unexpected frame %#x during handshake", f.Type)
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// Session returns the handshake result.
func (c *Client) Session() HelloAck { return c.ack }

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Raw frame relay
//
// A relay (the ibprouter cluster ingress) speaks the session protocol on
// behalf of another client: it forwards records frames it did not generate
// and interprets acks it will not consume. These methods expose the
// connection at frame granularity for that use; they must not be mixed with
// Stream, which owns the connection's read side from its own goroutine.

// WriteFrame buffers one raw protocol frame. Flush sends it.
func (c *Client) WriteFrame(typ uint64, payload []byte) error {
	c.conn.SetWriteDeadline(time.Now().Add(c.conn.timeout))
	return c.fw.WriteFrame(typ, payload)
}

// Flush writes all buffered frames with the dial timeout as write deadline.
func (c *Client) Flush() error {
	c.conn.SetWriteDeadline(time.Now().Add(c.conn.timeout))
	return c.fw.Flush()
}

// ReadFrame reads the next server frame, blocking until one arrives or the
// connection dies. flush, when non-nil, runs before each read system call
// the wait makes, and its error fails the read: a relay's batched replies
// leave before it waits on the server. The frame's payload is borrowed from
// the client buffer pool: the caller owns it and must Release (or Retain)
// it — see trace.Frame.
func (c *Client) ReadFrame(flush func() error) (trace.Frame, error) {
	c.conn.flush = flush
	return c.fr.Next()
}

// Stream replays tr through the session in frames of recsPerFrame records
// (<=0 picks the server's maximum), keeping at most the granted window of
// frames unacknowledged, and returns the server's final Summary.
//
// Frames collect in the client's write buffer. It is flushed only before
// Stream waits for a window slot, since the server cannot ack what has not
// left, and when the trace ends, so a window of small frames leaves in one
// write whether or not anyone listens. While Stream runs, each read and
// write system call arms its own deadline, the dial timeout from now.
//
// onAck, when non-nil, observes every acknowledgement together with the
// frame's round-trip time (the frame queued for sending to receipt of its
// ack; see FrameTiming.RTT). A server-initiated drain ends the stream early:
// Stream stops sending and returns the drain Summary (Drained=true) with a
// nil error — every frame acknowledged up to that point is reflected in it.
func (c *Client) Stream(tr trace.Trace, recsPerFrame int, onAck func(Ack, time.Duration)) (Summary, error) {
	if recsPerFrame <= 0 || recsPerFrame > c.ack.MaxFrameRecords {
		recsPerFrame = c.ack.MaxFrameRecords
	}
	window := c.ack.Window
	if window <= 0 {
		window = 1
	}

	// timing gates all per-frame clock/map bookkeeping: pure overhead when
	// nobody is listening.
	timing := onAck != nil || c.OnTiming != nil
	var (
		mu        sync.Mutex
		sendTimes = make(map[uint64]sendInfo)
	)
	sem := make(chan struct{}, window)
	sumCh := make(chan Summary, 1)
	errCh := make(chan error, 1)

	// Every return below follows the receive goroutine's last send, so it
	// no longer reads the connection when the deadlines go back to the
	// frame-level calls.
	c.conn.stream = true
	defer func() { c.conn.stream = false }()

	// Receive side: acks release window slots; events feed OnEvents; a
	// summary or error ends the session.
	go func() {
		var evs []EventRec // decoded in place, reused frame to frame
		for {
			f, err := c.fr.Next()
			if err != nil {
				errCh <- fmt.Errorf("serve: response stream: %w", err)
				return
			}
			// Every arm decodes what it needs before the borrowed payload
			// goes back to the pool here.
			switch f.Type {
			case FrameAck:
				ack, err := DecodeAck(f.Payload)
				f.Release()
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				info, ok := sendTimes[ack.Seq]
				delete(sendTimes, ack.Seq)
				mu.Unlock()
				now := time.Now()
				var rtt time.Duration
				if ok {
					rtt = now.Sub(info.sent)
				}
				if onAck != nil {
					onAck(ack, rtt)
				}
				if c.OnTiming != nil && ok {
					c.OnTiming(FrameTiming{
						Seq:        ack.Seq,
						WindowWait: info.winWait,
						Write:      info.write,
						RTT:        rtt,
						SentAt:     info.sent,
						AckedAt:    now,
					})
				}
				select {
				case <-sem:
				default: // ack for a frame the send side already gave up on
				}
			case FrameEvents:
				var seq uint64
				seq, evs, err = decodeEvents(evs, f.Payload, c.ack.MaxFrameRecords)
				f.Release()
				if err != nil {
					errCh <- err
					return
				}
				if c.OnEvents != nil {
					c.OnEvents(seq, evs)
				}
			case FrameSummary:
				var sum Summary
				err := unmarshalPayload(f.Payload, &sum)
				f.Release()
				if err != nil {
					errCh <- err
					return
				}
				sumCh <- sum
				return
			case FrameError:
				var we WireError
				err := unmarshalPayload(f.Payload, &we)
				f.Release()
				if err != nil {
					errCh <- err
					return
				}
				errCh <- &we
				return
			default:
				// Unknown server frame: skip (forward compatibility).
				f.Release()
			}
		}
	}()

	finish := func() (Summary, error) {
		select {
		case sum := <-sumCh:
			return sum, nil
		case err := <-errCh:
			return Summary{}, err
		}
	}

	// Encode buffer from the shared pool instead of a per-call allocation;
	// 16 bytes covers any record's worst-case encoding (4 varints).
	encBuf := clientPool.Get(recsPerFrame*16 + 2*binary.MaxVarintLen64)
	defer encBuf.Release()
	payload := encBuf.Bytes()[:0]
	var (
		seqNum    uint64
		waitStart time.Time // the previous frame's write end: one clock read serves both
	)
	if timing {
		waitStart = time.Now()
	}
	for start := 0; start < len(tr); start += recsPerFrame {
		end := min(start+recsPerFrame, len(tr))
		// Acquire a window slot. When none is free, flush the buffered
		// frames first, then wait (or learn the session ended early).
		select {
		case sem <- struct{}{}:
		default:
			if err := c.fw.Flush(); err != nil {
				return finish()
			}
			select {
			case sem <- struct{}{}:
			case sum := <-sumCh:
				return sum, nil
			case err := <-errCh:
				return Summary{}, err
			}
		}
		var acquired time.Time
		if timing {
			acquired = time.Now()
		}
		seqNum++
		payload = appendRecordsFrame(payload[:0], seqNum, tr[start:end])
		if timing {
			// The entry lands before the write, which can reach the socket
			// when the buffer fills, so a raced ack always finds it.
			now := time.Now()
			mu.Lock()
			sendTimes[seqNum] = sendInfo{sent: now, winWait: acquired.Sub(waitStart)}
			mu.Unlock()
		}
		if err := c.fw.WriteFrame(FrameRecords, payload); err != nil {
			return finish()
		}
		if timing {
			waitStart = time.Now()
			mu.Lock()
			if info, ok := sendTimes[seqNum]; ok { // the ack may have raced us
				info.write = waitStart.Sub(acquired)
				sendTimes[seqNum] = info
			}
			mu.Unlock()
		}
	}
	if c.fw.WriteFrame(FrameDone, nil) == nil {
		c.fw.Flush()
	}
	return finish()
}
