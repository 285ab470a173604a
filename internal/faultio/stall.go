package faultio

import (
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// StallListener wraps each connection it accepts in a StallConn and keeps
// the last one.
type StallListener struct {
	net.Listener
	last atomic.Pointer[StallConn]
}

// Accept accepts the next connection as a StallConn.
func (l *StallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &StallConn{Conn: c, began: make(chan struct{}), closed: make(chan struct{})}
	l.last.Store(sc)
	return sc, nil
}

// Last returns the connection accepted last, or nil.
func (l *StallListener) Last() *StallConn { return l.last.Load() }

// StallConn is a server's side of a connection whose peer can stop
// reading. Once stalled, its writes block as a socket's do when the peer
// has stopped reading and the buffers between them are full: until the
// write deadline passes or the connection closes. A shrunk socket buffer
// cannot stand in for it: TCP's zero-window probing stalls both directions
// and leaves the timing to the kernel.
type StallConn struct {
	net.Conn
	stalled  atomic.Bool
	deadline atomic.Int64 // unix ns; 0 for none

	began     chan struct{} // closed by the first stalled write
	since     time.Time     // when it began; set before began closes
	beginOnce sync.Once

	closed    chan struct{}
	closeOnce sync.Once
}

func (c *StallConn) SetWriteDeadline(t time.Time) error {
	c.storeDeadline(t)
	return c.Conn.SetWriteDeadline(t)
}

func (c *StallConn) SetDeadline(t time.Time) error {
	c.storeDeadline(t)
	return c.Conn.SetDeadline(t)
}

func (c *StallConn) storeDeadline(t time.Time) {
	if t.IsZero() {
		c.deadline.Store(0)
	} else {
		c.deadline.Store(t.UnixNano())
	}
}

func (c *StallConn) Write(p []byte) (int, error) {
	if !c.stalled.Load() {
		return c.Conn.Write(p)
	}
	c.beginOnce.Do(func() {
		c.since = time.Now()
		close(c.began)
	})
	var expired <-chan time.Time
	if d := c.deadline.Load(); d != 0 {
		t := time.NewTimer(time.Until(time.Unix(0, d)))
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-expired:
		return 0, os.ErrDeadlineExceeded
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *StallConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Stall makes every later write block, waits up to a minute for the first
// one to begin and returns when it began (the zero time if none did).
func (c *StallConn) Stall() time.Time {
	c.stalled.Store(true)
	select {
	case <-c.began:
		return c.since
	case <-time.After(time.Minute):
		return time.Time{}
	}
}

// StableGoroutines waits until runtime.NumGoroutine reads the same twice
// 100ms apart, or three seconds pass, so that goroutines an earlier test
// left behind are gone, and returns the last reading: a goroutine-leak
// check's baseline.
func StableGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// SettledGoroutines polls runtime.NumGoroutine until it reads want or
// three seconds pass, and returns the last reading.
func SettledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(3 * time.Second); n != want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
