package faultio_test

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/faultio"
)

// TestStallConn: writes pass until the connection stalls; then a write
// blocks until its deadline, or, with none, until the connection closes.
func TestStallConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &faultio.StallListener{Listener: ln}
	t.Cleanup(func() { sl.Close() })
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	c, err := sl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if net.Conn(sl.Last()) != c {
		t.Fatal("Last is not the accepted connection")
	}
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := io.ReadFull(peer, b[:]); err != nil || b[0] != 'x' {
		t.Fatalf("peer read %q, %v before the stall", b[:], err)
	}

	const wait = 200 * time.Millisecond
	set := time.Now()
	c.SetWriteDeadline(set.Add(wait))
	// Writes pass until the stall takes hold; the first one after it blocks.
	errc := make(chan error, 1)
	go func() {
		for {
			if _, err := c.Write([]byte("y")); err != nil {
				errc <- err
				return
			}
		}
	}()
	if began := sl.Last().Stall(); began.Before(set) {
		t.Errorf("the stalled write began at %v, before the test wrote", began)
	}
	if err := <-errc; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write with a deadline: %v, want a deadline error", err)
	}
	if d := time.Since(set); d < wait {
		t.Errorf("stalled write returned after %v, before its %v deadline", d, wait)
	}

	c.SetWriteDeadline(time.Time{})
	go func() {
		_, err := c.Write([]byte("z"))
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("stalled write without a deadline returned %v", err)
	case <-time.After(wait):
	}
	c.Close()
	if err := <-errc; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("stalled write on a closed connection: %v, want net.ErrClosed", err)
	}
}
