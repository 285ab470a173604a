package serve

import (
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// countingConn counts the client's read and write system calls and the
// deadlines armed on the socket below its streamConn.
type countingConn struct {
	net.Conn
	reads, writes, readDeadlines, writeDeadlines atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	c.readDeadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.writeDeadlines.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// windowServer is a fake ibpserved that grants window and acks records
// frames only once it has read a full window of them, or the Done that ends
// a shorter last window. A client that holds frames back without flushing
// before it waits deadlocks against it; one that flushes every frame gets
// no earlier ack for it.
func windowServer(t *testing.T, window int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serveWindow(conn, window)
		}
	}()
	return ln.Addr().String()
}

func serveWindow(conn net.Conn, window int) {
	defer conn.Close()
	if _, err := io.ReadFull(conn, make([]byte, len(Preamble)+1)); err != nil {
		return
	}
	fr := trace.NewFrameReader(conn, 0)
	fw := trace.NewFrameWriter(conn)
	if f, err := fr.Next(); err != nil || f.Type != FrameHello {
		return
	}
	fw.WriteFrame(FrameHelloAck, marshalJSON(HelloAck{
		Session: 1, Predictor: "window-stub", Window: window,
		MaxFramePayload: 1 << 20, MaxFrameRecords: 8192,
	}))
	fw.Flush()
	var (
		pending []Ack
		sum     Summary
		seq     uint64
	)
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case FrameRecords:
			seq++
			chunk, we := SplitRecordsFrame(f.Payload, seq)
			it, err := trace.NewRecordIter(chunk, 0)
			if we != nil || err != nil {
				return
			}
			pending = append(pending, Ack{Seq: seq, Records: it.Len()})
			if len(pending) < window {
				continue
			}
		case FrameDone:
		default:
			return
		}
		for _, a := range pending {
			sum.Frames++
			sum.Records += a.Records
			fw.WriteFrame(FrameAck, appendAck(nil, a))
		}
		pending = pending[:0]
		if f.Type == FrameDone {
			fw.WriteFrame(FrameSummary, marshalJSON(sum))
		}
		if fw.Flush() != nil || f.Type == FrameDone {
			return
		}
	}
}

// TestStreamFlushesOncePerWindow pins the client's flush policy: frames
// leave only in the flush before Stream waits for a window slot and in the
// one that ends the trace, whether or not onAck and OnTiming listen, and
// each read or write system call arms one deadline. Every frame still gets
// one round trip, and a positive one.
func TestStreamFlushesOncePerWindow(t *testing.T) {
	// At one P, as in the benchmark, the receive goroutine handles a
	// window's acks before the sender runs again. With more, a sender that
	// outruns it flushes part of a window early: correct, but the count
	// would then depend on scheduling.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const window, frames, perFrame = 8, 61, 16
	addr := windowServer(t, window)
	cfg, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(2000)[:frames*perFrame-5]
	for _, listen := range []bool{false, true} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cc := &countingConn{Conn: raw}
		c, err := handshake(cc, Hello{}, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var (
			onAcks  = map[uint64]int{}
			timings = map[uint64]int{}
			onAck   func(Ack, time.Duration)
		)
		if listen {
			onAck = func(a Ack, rtt time.Duration) {
				if rtt <= 0 {
					t.Errorf("frame %d: onAck RTT %v", a.Seq, rtt)
				}
				onAcks[a.Seq]++
			}
			c.OnTiming = func(ft FrameTiming) {
				if ft.RTT <= 0 {
					t.Errorf("frame %d: OnTiming RTT %v", ft.Seq, ft.RTT)
				}
				timings[ft.Seq]++
			}
		}
		reads0, writes0 := cc.reads.Load(), cc.writes.Load()
		rdl0, wdl0 := cc.readDeadlines.Load(), cc.writeDeadlines.Load()
		sum, err := c.Stream(tr, perFrame, onAck)
		c.Close()
		if err != nil {
			t.Fatalf("listen=%v: %v", listen, err)
		}
		if sum.Frames != frames || sum.Records != len(tr) {
			t.Fatalf("listen=%v: summary %d frames, %d records; want %d, %d", listen, sum.Frames, sum.Records, frames, len(tr))
		}
		writes := cc.writes.Load() - writes0
		if limit := int64((frames+window-1)/window + 2); writes > limit {
			t.Errorf("listen=%v: %d writes for %d frames at window %d, want at most %d", listen, writes, frames, window, limit)
		}
		if reads, rdl := cc.reads.Load()-reads0, cc.readDeadlines.Load()-rdl0; rdl != reads {
			t.Errorf("listen=%v: %d read deadlines for %d reads", listen, rdl, reads)
		}
		if wdl := cc.writeDeadlines.Load() - wdl0; wdl != writes {
			t.Errorf("listen=%v: %d write deadlines for %d writes", listen, wdl, writes)
		}
		if !listen {
			continue
		}
		for seq := uint64(1); seq <= frames; seq++ {
			if onAcks[seq] != 1 || timings[seq] != 1 {
				t.Errorf("frame %d: %d onAck and %d OnTiming calls, want 1 each", seq, onAcks[seq], timings[seq])
			}
		}
		if len(onAcks) != frames || len(timings) != frames {
			t.Errorf("callbacks for %d and %d frames, want %d", len(onAcks), len(timings), frames)
		}
	}
}
