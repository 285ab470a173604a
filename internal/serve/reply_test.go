package serve

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/faultio"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// openRaw opens a session by hand: the preamble and h, then the HelloAck.
func openRaw(t *testing.T, addr string, h Hello) (net.Conn, *trace.FrameReader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var opening bytes.Buffer
	opening.WriteString(Preamble)
	opening.WriteByte(ProtocolVersion)
	opening.Write(framed(FrameHello, marshalJSON(h)))
	if _, err := conn.Write(opening.Bytes()); err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFrameReader(conn, 1<<20)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := fr.Next(); err != nil || f.Type != FrameHelloAck {
		t.Fatalf("handshake: frame type %#x, err %v; want a HelloAck", f.Type, err)
	}
	return conn, fr
}

// framed returns one frame's wire bytes.
func framed(typ uint64, payload []byte) []byte {
	var b bytes.Buffer
	fw := trace.NewFrameWriter(&b)
	fw.WriteFrame(typ, payload)
	fw.Flush()
	return b.Bytes()
}

// TestIdleSessionGoroutines: a session is one goroutine, its connection's,
// which reads, predicts and writes its replies; it runs no writer beside it.
func TestIdleSessionGoroutines(t *testing.T) {
	_, addr := startServer(t, Config{})
	const sessions = 10
	base := faultio.StableGoroutines()
	clients := make([]*Client, sessions)
	for i := range clients {
		c, err := Dial(addr, Hello{Benchmark: "idle"}, DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	if got := faultio.SettledGoroutines(base+sessions) - base; got != sessions {
		t.Errorf("%d idle sessions hold %d goroutines, want %d", sessions, got, sessions)
	}
	for _, c := range clients {
		c.Close()
	}
	if got := faultio.SettledGoroutines(base) - base; got != 0 {
		t.Errorf("%d goroutines left after the sessions closed", got)
	}
}

// TestPartialFrameIsAcked: a session flushes its replies before every read
// system call, not only when nothing is buffered. The client sends frame 1
// and the first half of frame 2 in one write and waits for ack 1: a session
// that held the ack while part of a frame sat in its read buffer would send
// it only when the read timed out.
func TestPartialFrameIsAcked(t *testing.T) {
	const readTimeout = 10 * time.Second
	_, addr := startServer(t, Config{Limits: Limits{ReadTimeout: readTimeout}})
	conn, fr := openRaw(t, addr, Hello{Benchmark: "gcc"})
	tr := benchTrace(t, "gcc", 2000)
	one := framed(FrameRecords, appendRecordsFrame(nil, 1, tr[:500]))
	two := framed(FrameRecords, appendRecordsFrame(nil, 2, tr[500:1000]))
	start := time.Now()
	if _, err := conn.Write(append(one, two[:len(two)/2]...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * readTimeout))
	f, err := fr.Next()
	if err != nil || f.Type != FrameAck {
		t.Fatalf("reply: frame type %#x, err %v; want an ack", f.Type, err)
	}
	if ack, err := DecodeAck(f.Payload); err != nil || ack.Seq != 1 {
		t.Fatalf("ack %+v, err %v; want seq 1", ack, err)
	}
	if waited := time.Since(start); waited > readTimeout/4 {
		t.Errorf("ack 1 took %v with half of frame 2 buffered (read timeout %v)", waited, readTimeout)
	}
}

// streamUnread sends records frames of tr on conn, pace apart, never reading
// a reply, until the connection fails.
func streamUnread(conn net.Conn, tr []trace.Record, pace time.Duration) {
	go func() {
		for seq := uint64(1); ; seq++ {
			at := int(seq*500) % (len(tr) - 500)
			if _, err := conn.Write(framed(FrameRecords, appendRecordsFrame(nil, seq, tr[at:at+500]))); err != nil {
				return
			}
			time.Sleep(pace)
		}
	}()
}

// TestSlowReaderHoldsNoSlot: a client that keeps sending frames but never
// reads its replies blocks only its own session's flush. With one predictor
// slot, a second session completes while the first is stuck; the stuck one
// ends within WriteTimeout of its flush, long before its ReadTimeout, and
// leaves neither a live session nor a goroutine behind.
func TestSlowReaderHoldsNoSlot(t *testing.T) {
	reg := telemetry.Enable(nil)
	t.Cleanup(telemetry.Disable)
	gauge := reg.Gauge("serve_sessions_active")
	const writeTimeout = 5 * time.Second
	srv, err := New(Config{Predictor: defaultFlags(), Shards: 1,
		Limits: Limits{WriteTimeout: writeTimeout, ReadTimeout: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &faultio.StallListener{Listener: ln}
	go srv.Serve(sl)
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()
	base := faultio.StableGoroutines()

	tr := benchTrace(t, "gcc", 2000)
	slow, _ := openRaw(t, addr, Hello{Benchmark: "slow", Events: true})
	sc := sl.Last()
	streamUnread(slow, tr, 0)
	stuck := sc.Stall()

	c, err := Dial(addr, Hello{Benchmark: "gcc"}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := c.Stream(tr, 256, nil); err != nil || sum.Records != len(tr) {
		t.Fatalf("second session beside a stuck one: %+v, %v", sum, err)
	}
	c.Close()
	if n := srv.Sessions().Len(); n != 1 {
		t.Fatalf("%d live sessions when the second one ended, want the stuck one", n)
	}
	for start := time.Now(); srv.Sessions().Len() != 0 && time.Since(start) < time.Minute; {
		time.Sleep(5 * time.Millisecond)
	}
	if d := time.Since(stuck); d > writeTimeout+time.Second {
		t.Errorf("the stuck session ended %v after its flush began (write timeout %v)", d, writeTimeout)
	}
	slow.Close()
	waitGaugeZero(t, gauge, "stuck reader")
	if got := faultio.SettledGoroutines(base) - base; got > 0 {
		t.Errorf("%d goroutines left after the sessions ended", got)
	}
}

// countingListener wraps each connection it accepts in a countingConn and
// keeps the last one.
type countingListener struct {
	net.Listener
	last atomic.Pointer[countingConn]
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.last.Store(cc)
	return cc, nil
}

// TestRepliesLeaveInBatches: a window of frames that arrives in one client
// write is answered in one server write (two if the frames arrive split),
// besides the HelloAck and the Summary.
func TestRepliesLeaveInBatches(t *testing.T) {
	srv, err := New(Config{Predictor: defaultFlags()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	go srv.Serve(cl)
	t.Cleanup(func() { srv.Close() })

	conn, fr := openRaw(t, ln.Addr().String(), Hello{Benchmark: "gcc", Window: 8})
	writes := &cl.last.Load().writes
	hello := writes.Load()
	tr := benchTrace(t, "gcc", 2000)
	var window []byte
	for seq := uint64(1); seq <= 8; seq++ {
		window = append(window, framed(FrameRecords, appendRecordsFrame(nil, seq, tr[seq*100:seq*100+100]))...)
	}
	if _, err := conn.Write(window); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		f, err := fr.Next()
		if err != nil || f.Type != FrameAck {
			t.Fatalf("reply %d: frame type %#x, err %v; want an ack", seq, f.Type, err)
		}
	}
	if n := writes.Load() - hello; n > 2 {
		t.Errorf("8 acks took %d server writes, want at most 2", n)
	}
	acked := writes.Load()
	conn.Write(framed(FrameDone, nil))
	if f, err := fr.Next(); err != nil || f.Type != FrameSummary {
		t.Fatalf("final reply: frame type %#x, err %v; want a Summary", f.Type, err)
	}
	if n := writes.Load() - acked; n != 1 {
		t.Errorf("the Summary took %d server writes, want 1", n)
	}
}

// discardConn is a connection whose writes vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplyPathZeroAllocs pins a session's steady-state reply path at zero
// allocations, with telemetry, the flight recorder and the session's stats
// entry all live: the events and the ack of a frame join the batch, the
// flush writes them, and the ack's span is published.
func TestReplyPathZeroAllocs(t *testing.T) {
	telemetry.Enable(nil)
	t.Cleanup(telemetry.Disable)
	srv, err := New(Config{Predictor: defaultFlags(), Flight: flight.NewRecorder(flight.Options{Service: "test"})})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession(srv, discardConn{}, pred, Hello{Events: true})
	sess.track = srv.track.NewSession(sess, sessiontrack.Meta{Kind: sessiontrack.KindServe})
	sess.tracer = srv.cfg.Flight.Tracer("trace", 1)
	// Enough events that their payload is spliced into the write by
	// reference rather than copied.
	evs := make(eventLog, 200)
	for i := range evs {
		evs[i] = EventRec{PC: uint32(0x1000 + 4*i), Actual: uint32(0x2000 + 8*i), Miss: i%3 == 0}
	}
	seq := uint64(0)
	step := func() {
		seq++
		sess.evs = append(sess.evs[:0], evs...)
		sess.reply(Ack{Seq: seq, Records: 4000, Executed: 200, Misses: 67}, sess.tracer.Start(seq))
		if err := sess.w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	step() // grows the batch, its ack list and the pool's size class
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("reply path: %v allocations per frame, want 0", allocs)
	}
	if got := srv.cfg.Flight.Stats().Recorded; got < 200 {
		t.Errorf("%d spans published for %d acks", got, seq)
	}
}
