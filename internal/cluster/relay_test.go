package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/faultio"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// openRaw opens a session by hand: the preamble and h, then the HelloAck.
func openRaw(t *testing.T, addr string, h serve.Hello) (net.Conn, *trace.FrameReader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(clientBytes(t, helloFrame(t, h))); err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFrameReader(conn, 1<<20)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if f, err := fr.Next(); err != nil || f.Type != serve.FrameHelloAck {
		t.Fatalf("handshake: frame type %#x, err %v; want a HelloAck", f.Type, err)
	}
	return conn, fr
}

// recordsFrame returns the wire bytes of records frame seq holding recs.
func recordsFrame(seq uint64, recs []trace.Record) []byte {
	var b bytes.Buffer
	fw := trace.NewFrameWriter(&b)
	fw.WriteFrame(serve.FrameRecords, trace.AppendRecords(binary.AppendUvarint(nil, seq), recs))
	fw.Flush()
	return b.Bytes()
}

// TestRoutedIdleSessionGoroutines: a routed session is three goroutines on
// the router (its reader, its forwarder and the forwarder's sender) and one
// on its backend; neither daemon runs a writer per session.
func TestRoutedIdleSessionGoroutines(t *testing.T) {
	_, b1 := startServe(t)
	_, addr := startRouter(t, []string{b1}, func(c *Config) { c.ProbeInterval = time.Hour })
	const sessions = 10
	base := faultio.StableGoroutines()
	clients := make([]*serve.Client, sessions)
	for i := range clients {
		c, err := serve.Dial(addr, serve.Hello{Benchmark: "idle"}, serve.DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	if got := faultio.SettledGoroutines(base+4*sessions) - base; got != 4*sessions {
		t.Errorf("%d idle routed sessions hold %d goroutines, want %d", sessions, got, 4*sessions)
	}
	for _, c := range clients {
		c.Close()
	}
	if got := faultio.SettledGoroutines(base) - base; got != 0 {
		t.Errorf("%d goroutines left after the sessions closed", got)
	}
}

// TestRouterPartialFrameIsAcked: the router relays an ack before it waits
// on the rest of a frame. The client sends frame 1 and the first half of
// frame 2 in one write and waits for ack 1, which takes the sender's flush
// before it waits for frame 2, the backend's flush before its next read,
// and the forwarder's flush before its next read from the backend.
func TestRouterPartialFrameIsAcked(t *testing.T) {
	const readTimeout = 10 * time.Second
	_, b1 := startServe(t)
	_, addr := startRouter(t, []string{b1}, func(c *Config) { c.ReadTimeout = readTimeout })
	conn, fr := openRaw(t, addr, serve.Hello{Benchmark: "gcc"})
	tr := suiteTrace(t, "gcc", 2000)
	two := recordsFrame(2, tr[500:1000])
	start := time.Now()
	if _, err := conn.Write(append(recordsFrame(1, tr[:500]), two[:len(two)/2]...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * readTimeout))
	f, err := fr.Next()
	if err != nil || f.Type != serve.FrameAck {
		t.Fatalf("reply: frame type %#x, err %v; want an ack", f.Type, err)
	}
	if ack, err := serve.DecodeAck(f.Payload); err != nil || ack.Seq != 1 {
		t.Fatalf("ack %+v, err %v; want seq 1", ack, err)
	}
	if waited := time.Since(start); waited > readTimeout/4 {
		t.Errorf("ack 1 took %v with half of frame 2 buffered (read timeout %v)", waited, readTimeout)
	}
}

// TestRouterSlowReaderHoldsNoSlot: a routed client that keeps sending frames
// but never reads its replies blocks only its own session's flush. Its
// backend has one predictor slot, and a second routed session completes
// while the first is stuck; the stuck one ends within WriteTimeout of its
// flush, long before its ReadTimeout, and leaves neither a live session nor
// a goroutine behind on the router or the backend.
func TestRouterSlowReaderHoldsNoSlot(t *testing.T) {
	reg := telemetry.Enable(nil)
	t.Cleanup(telemetry.Disable)
	gauge := reg.Gauge("router_sessions_active")
	srv, err := serve.New(serve.Config{Predictor: defaultFlags(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(bln)
	t.Cleanup(func() { srv.Close() })
	const writeTimeout = 5 * time.Second
	r, err := New(Config{
		Backends:      []string{bln.Addr().String()},
		Predictor:     defaultFlags(),
		Limits:        serve.Limits{WriteTimeout: writeTimeout, ReadTimeout: time.Minute},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &faultio.StallListener{Listener: ln}
	go r.Serve(sl)
	t.Cleanup(func() { r.Close() })
	addr := ln.Addr().String()
	base := faultio.StableGoroutines()

	tr := suiteTrace(t, "gcc", 2000)
	slow, _ := openRaw(t, addr, serve.Hello{Benchmark: "slow", Events: true})
	sc := sl.Last()
	// A frame a millisecond keeps the client inside its window until the
	// router's relay stalls.
	streamUnread(slow, tr, time.Millisecond)
	stuck := sc.Stall()

	c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := c.Stream(tr, 256, nil); err != nil || sum.Records != len(tr) {
		t.Fatalf("second session beside a stuck one: %+v, %v", sum, err)
	}
	c.Close()
	// The router unregisters the second session as it closes, just after
	// the Summary leaves.
	for start := time.Now(); r.Sessions().Len() > 1 && time.Since(start) < time.Second; {
		time.Sleep(time.Millisecond)
	}
	if n := r.Sessions().Len(); n != 1 {
		t.Fatalf("%d live sessions when the second one ended, want the stuck one", n)
	}
	for start := time.Now(); r.Sessions().Len() != 0 && time.Since(start) < time.Minute; {
		time.Sleep(5 * time.Millisecond)
	}
	if d := time.Since(stuck); d > writeTimeout+time.Second {
		t.Errorf("the stuck session ended %v after its flush began (write timeout %v)", d, writeTimeout)
	}
	slow.Close()
	for start := time.Now(); gauge.Load() != 0 && time.Since(start) < 5*time.Second; {
		time.Sleep(5 * time.Millisecond)
	}
	if g := gauge.Load(); g != 0 {
		t.Errorf("router_sessions_active = %v after the sessions ended", g)
	}
	if got := faultio.SettledGoroutines(base) - base; got > 0 {
		t.Errorf("%d goroutines left after the sessions ended", got)
	}
}

// streamUnread sends records frames of tr on conn, pace apart, never reading
// a reply, until the connection fails.
func streamUnread(conn net.Conn, tr []trace.Record, pace time.Duration) {
	go func() {
		for seq := uint64(1); ; seq++ {
			at := int(seq*500) % (len(tr) - 500)
			if _, err := conn.Write(recordsFrame(seq, tr[at:at+500])); err != nil {
				return
			}
			time.Sleep(pace)
		}
	}()
}
