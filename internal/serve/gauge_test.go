package serve

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// waitGaugeZero polls until the gauge reads zero or the deadline passes —
// unregistration runs on the session goroutines after the socket drops.
func waitGaugeZero(t *testing.T, g *telemetry.Gauge, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g.Load() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: serve_sessions_active stuck at %v, want 0", what, g.Load())
}

// TestSessionsActiveGaugeBalances drives every session exit path —
// clean completion, client abandonment mid-stream, rejected handshake,
// graceful drain, and hard close — and asserts serve_sessions_active
// returns to zero after each. Guards the leak where a session ended on a
// path that never unregistered it.
func TestSessionsActiveGaugeBalances(t *testing.T) {
	reg := telemetry.Enable(nil)
	gauge := reg.Gauge("serve_sessions_active")

	t.Run("clean completion", func(t *testing.T) {
		srv, addr := startServer(t, Config{Shards: 2})
		tr := benchTrace(t, "gcc", 2000)
		c, err := Dial(addr, Hello{Benchmark: "gcc"}, DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stream(tr, 256, nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
		waitGaugeZero(t, gauge, "clean completion")
		if n := srv.Sessions().Len(); n != 0 {
			t.Fatalf("registry holds %d sessions after completion", n)
		}
	})

	t.Run("abandoned mid-stream", func(t *testing.T) {
		srv, addr := startServer(t, Config{Shards: 2})
		c, err := Dial(addr, Hello{Benchmark: "gcc"}, DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		// Wait until the server actually tracks the session, then cut the
		// socket with frames unsent — the error exit path must unregister.
		deadline := time.Now().Add(5 * time.Second)
		for srv.Sessions().Len() == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if gauge.Load() != 1 {
			t.Fatalf("gauge = %v with one open session", gauge.Load())
		}
		c.Close()
		waitGaugeZero(t, gauge, "abandoned mid-stream")
	})

	t.Run("rejected handshake", func(t *testing.T) {
		_, addr := startServer(t, Config{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A records frame before Hello is rejected pre-registration: the
		// gauge must never move.
		fw := trace.NewFrameWriter(conn)
		fw.WriteFrame(FrameRecords, []byte{0})
		fw.Flush()
		conn.Close()
		time.Sleep(50 * time.Millisecond)
		waitGaugeZero(t, gauge, "rejected handshake")
	})

	t.Run("graceful drain", func(t *testing.T) {
		srv, addr := startServer(t, Config{Shards: 2})
		tr := benchTrace(t, "perl", 2000)
		c, err := Dial(addr, Hello{Benchmark: "perl"}, DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		done := make(chan error, 1)
		go func() {
			_, err := c.Stream(tr, 256, nil)
			done <- err
		}()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Sessions().Len() == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		<-done // drained summary or drain error; either way the session ended
		waitGaugeZero(t, gauge, "graceful drain")
	})

	t.Run("hard close", func(t *testing.T) {
		srv, addr := startServer(t, Config{Shards: 2})
		c, err := Dial(addr, Hello{Benchmark: "gcc"}, DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		deadline := time.Now().Add(5 * time.Second)
		for srv.Sessions().Len() == 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		srv.Close()
		waitGaugeZero(t, gauge, "hard close")
	})
}

// TestCloseWhileSessionsOpen: Close cuts sessions that are still opening.
// Clients keep arriving while the server closes, so the forced drain can
// find a session its open has only just registered. That session already
// holds its registry entry, so once Close returns the registry is empty and
// serve_sessions_active reads 0.
func TestCloseWhileSessionsOpen(t *testing.T) {
	reg := telemetry.Enable(nil)
	t.Cleanup(telemetry.Disable)
	gauge := reg.Gauge("serve_sessions_active")
	srv, addr := startServer(t, Config{Shards: 2})
	var opening bytes.Buffer
	opening.WriteString(Preamble)
	opening.WriteByte(ProtocolVersion)
	fw := trace.NewFrameWriter(&opening)
	fw.WriteFrame(FrameHello, marshalJSON(Hello{Benchmark: "gcc"}))
	fw.Flush()

	// Four clients each open up to 64 sessions, a preamble and a Hello and
	// no more, and keep dialing while the server closes.
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				select {
				case <-done:
					return
				default:
				}
				c, err := net.DialTimeout("tcp", addr, time.Second)
				if err != nil {
					return // the listener closed
				}
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
				c.Write(opening.Bytes())
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions().Len() < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	close(done)
	wg.Wait()
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()
	if n := srv.Sessions().Len(); n != 0 {
		t.Errorf("registry holds %d sessions after Close", n)
	}
	if g := gauge.Load(); g != 0 {
		t.Errorf("serve_sessions_active = %v after Close, want 0", g)
	}
}
