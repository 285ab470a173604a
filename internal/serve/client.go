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
	// Timeout bounds each dial attempt and every subsequent frame read.
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
	conn    net.Conn
	fw      *trace.FrameWriter
	fr      *trace.FrameReader
	ack     HelloAck
	timeout time.Duration

	// OnEvents, when non-nil, receives the decoded per-branch outcomes of
	// every events frame (sessions opened with Hello.Events). Called from
	// Stream's receive goroutine.
	OnEvents func(seq uint64, evs []EventRec)

	// OnTiming, when non-nil, receives the client-side hop breakdown of
	// every acknowledged frame (window wait, write, round trip). Like onAck
	// it forces a flush per frame, so the RTT is an honest round trip.
	// Called from Stream's receive goroutine.
	OnTiming func(FrameTiming)
}

// FrameTiming is the client-side hop breakdown of one streamed frame: where
// its wall time went before the server ever saw it, and the full round trip.
type FrameTiming struct {
	// Seq is the frame's sequence number.
	Seq uint64
	// WindowWait is the time blocked waiting for a free window slot
	// (including the flush that makes the server able to grant one).
	WindowWait time.Duration
	// Write is the frame encode + write + flush time.
	Write time.Duration
	// RTT is send → ack receipt.
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
	c := &Client{
		conn:    conn,
		fw:      trace.NewFrameWriter(conn),
		fr:      trace.NewPooledFrameReader(conn, 1<<24, clientPool),
		timeout: timeout,
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
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	return c.fw.WriteFrame(typ, payload)
}

// Flush writes all buffered frames with the dial timeout as write deadline.
func (c *Client) Flush() error {
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	return c.fw.Flush()
}

// ReadFrame reads the next server frame. A non-zero deadline bounds the
// wait; zero blocks until a frame arrives or the connection dies. The
// frame's payload is borrowed from the client buffer pool: the caller owns
// it and must Release (or Retain/Copy) it — see trace.Frame.
func (c *Client) ReadFrame(deadline time.Duration) (trace.Frame, error) {
	if deadline > 0 {
		c.conn.SetReadDeadline(time.Now().Add(deadline))
	} else {
		c.conn.SetReadDeadline(time.Time{})
	}
	return c.fr.Next()
}

// Stream replays tr through the session in frames of recsPerFrame records
// (<=0 picks the server's maximum), keeping at most the granted window of
// frames unacknowledged, and returns the server's final Summary.
//
// onAck, when non-nil, observes every acknowledgement together with the
// frame's round-trip time (send of the records frame to receipt of its ack).
// A server-initiated drain ends the stream early: Stream stops sending and
// returns the drain Summary (Drained=true) with a nil error — every frame
// acknowledged up to that point is reflected in it.
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

	// Receive side: acks release window slots; events feed OnEvents; a
	// summary or error ends the session.
	go func() {
		for {
			c.conn.SetReadDeadline(time.Now().Add(c.timeout))
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
				seq, evs, err := decodeEvents(f.Payload, c.ack.MaxFrameRecords)
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
	var seqNum uint64
	for start := 0; start < len(tr); start += recsPerFrame {
		end := min(start+recsPerFrame, len(tr))
		var waitStart time.Time
		if timing {
			waitStart = time.Now()
		}
		// Acquire a window slot. When none is free, flush buffered frames
		// first — the server cannot ack what is still sitting in our write
		// buffer — then wait (or learn the session ended early). The fast
		// path leaves frames buffered, so a full window's worth of frames
		// coalesces into a few large writes.
		select {
		case sem <- struct{}{}:
		default:
			c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
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
		seqNum++
		payload = appendRecordsFrame(payload[:0], seqNum, tr[start:end])
		if timing {
			// RTT/hop bookkeeping only when someone is listening: the map
			// and clock reads are pure overhead otherwise. The entry lands
			// before the write so a raced ack always finds it.
			now := time.Now()
			mu.Lock()
			sendTimes[seqNum] = sendInfo{sent: now, winWait: now.Sub(waitStart)}
			mu.Unlock()
		}
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
		if err := c.fw.WriteFrame(FrameRecords, payload); err != nil {
			return finish()
		}
		if timing {
			// Per-frame flush keeps the reported RTT an honest frame
			// round-trip rather than a measure of our own buffering.
			if err := c.fw.Flush(); err != nil {
				return finish()
			}
			mu.Lock()
			if info, ok := sendTimes[seqNum]; ok { // the ack may have raced us
				info.write = time.Since(info.sent)
				sendTimes[seqNum] = info
			}
			mu.Unlock()
		}
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	if c.fw.WriteFrame(FrameDone, nil) == nil {
		c.fw.Flush()
	}
	return finish()
}
