package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/trace"
)

// handshakeOutcome dials addr, writes raw, and reports the front end's first
// n answers, comma-separated: "close" for a bare close, "error:<code>" for a
// WireError frame, "ack" for a HelloAck, or "ack trace=<id>" for one echoing
// a trace ID. msg is the WireError's message, if one came.
func handshakeOutcome(t *testing.T, addr string, raw []byte, n int) (answers, msg string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFrameReader(conn, 1<<20)
	var got []string
	for len(got) < n {
		f, err := fr.Next()
		switch {
		case errors.Is(err, io.EOF):
			return strings.Join(append(got, "close"), ", "), msg
		case err != nil:
			t.Fatalf("reading the answer: %v", err)
		case f.Type == serve.FrameHelloAck:
			var ack serve.HelloAck
			if err := json.Unmarshal(f.Payload, &ack); err != nil {
				t.Fatalf("HelloAck payload %q: %v", f.Payload, err)
			}
			if ack.TraceID != "" {
				got = append(got, "ack trace="+ack.TraceID)
			} else {
				got = append(got, "ack")
			}
		case f.Type == serve.FrameError:
			var we serve.WireError
			if err := json.Unmarshal(f.Payload, &we); err != nil {
				t.Fatalf("error frame payload %q: %v", f.Payload, err)
			}
			got = append(got, "error:"+we.Code)
			msg = we.Msg
		default:
			t.Fatalf("unexpected frame type %#x", f.Type)
		}
	}
	return strings.Join(got, ", "), msg
}

// clientBytes is a client's opening: the preamble, then each frame.
func clientBytes(t *testing.T, frames ...func(*trace.FrameWriter) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(serve.Preamble)
	buf.WriteByte(serve.ProtocolVersion)
	fw := trace.NewFrameWriter(&buf)
	for _, f := range frames {
		if err := f(fw); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func frame(typ uint64, payload []byte) func(*trace.FrameWriter) error {
	return func(fw *trace.FrameWriter) error { return fw.WriteFrame(typ, payload) }
}

func helloFrame(t *testing.T, h serve.Hello) func(*trace.FrameWriter) error {
	payload, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return frame(serve.FrameHello, payload)
}

// TestHandshakeParity runs one table of openings against ibpserved's Server
// and ibprouter's Router: one front end and one records-frame rule, so the
// same verdicts, message and all. A records frame follows a good Hello in
// the last three: the router judges its seq by serve's rule and relays the
// backend's verdict on its chunk. Both daemons run untraced, so an echoed
// trace ID is the Hello's own.
func TestHandshakeParity(t *testing.T) {
	_, direct := startServe(t)
	_, routed := startRouter(t, []string{direct}, nil)

	badPath := defaultFlags()
	badPath.Path = -3
	hello := helloFrame(t, serve.Hello{Benchmark: "gcc"})
	goodHello := clientBytes(t, hello)
	// A first frame whose checksum does not match its payload.
	corrupt := bytes.Clone(goodHello)
	corrupt[len(corrupt)-1] ^= 0xff
	records := func(seq uint64, recs trace.Trace) []byte {
		return trace.AppendRecords(binary.AppendUvarint(nil, seq), recs)
	}
	// Seq 1 and a chunk of two records whose last byte is cut off.
	truncated := records(1, trace.Trace{
		{PC: 0x1000, Target: 0x2000, Kind: trace.IndirectJump, Gap: 3},
		{PC: 0x1040, Target: 0x2400, Kind: trace.VirtualCall, Gap: 5},
	})
	truncated = truncated[:len(truncated)-1]

	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"garbage preamble", []byte("HTTP/"), "close"},
		{"corrupt first frame", corrupt, "error:" + serve.CodeBadFrame},
		{"non-Hello first frame", clientBytes(t, frame(serve.FrameDone, nil)), "error:" + serve.CodeBadHello},
		{"malformed Hello JSON", clientBytes(t, frame(serve.FrameHello, []byte(`{"benchmark":`))), "error:" + serve.CodeBadHello},
		{"path length -3", clientBytes(t, helloFrame(t, serve.Hello{Predictor: &badPath})), "error:" + serve.CodeBadHello},
		{"negative warmup", clientBytes(t, helloFrame(t, serve.Hello{Warmup: -1})), "error:" + serve.CodeBadHello},
		{"malformed tunerPolicy", clientBytes(t, helloFrame(t, serve.Hello{TunerPolicy: "speed=9"})), "error:" + serve.CodeBadHello},
		{"good Hello", goodHello, "ack"},
		{"Hello with trace ID", clientBytes(t, helloFrame(t, serve.Hello{Benchmark: "gcc", TraceID: "feedface"})), "ack trace=feedface"},
		{"records frame without seq", clientBytes(t, hello, frame(serve.FrameRecords, nil)), "ack, error:" + serve.CodeBadFrame},
		{"first seq 3", clientBytes(t, hello, frame(serve.FrameRecords, records(3, nil))), "ack, error:" + serve.CodeBadSeq},
		{"truncated first chunk", clientBytes(t, hello, frame(serve.FrameRecords, truncated)), "ack, error:" + serve.CodeBadFrame},
	}
	// Specs whose table constructor used to panic on the connection
	// goroutine, killing the daemon.
	for _, spec := range []string{
		`{"pred":"btb","table":"tagless","entries":1000}`,
		`{"pred":"btb","table":"fullassoc","entries":0}`,
		`{"pred":"shared","table":"fullassoc","entries":0,"hybrid":"3,1"}`,
		`{"pred":"tcache","table":"tagless","entries":1000}`,
		`{"pred":"ppm","table":"tagless","entries":1000,"hybrid":"3,1"}`,
		`{"pred":"shared","table":"assoc2","entries":1000,"hybrid":"3,1"}`,
	} {
		cases = append(cases, struct {
			name string
			raw  []byte
			want string
		}{"predictor " + spec, clientBytes(t, frame(serve.FrameHello, []byte(`{"predictor":`+spec+`}`))), "error:" + serve.CodeBadHello})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := strings.Count(tc.want, ", ") + 1
			gotServe, msgServe := handshakeOutcome(t, direct, tc.raw, n)
			gotRouter, msgRouter := handshakeOutcome(t, routed, tc.raw, n)
			if gotServe != tc.want || gotRouter != tc.want {
				t.Errorf("serve answered %s, router %s; want %s from both", gotServe, gotRouter, tc.want)
			}
			if msgServe != msgRouter {
				t.Errorf("serve said %q, router %q", msgServe, msgRouter)
			}
		})
	}
}

// TestRouterWindowOverflow: the router refuses a records frame more than
// window+1 past the last ack it relayed, which bounds its journal. Its only
// backend accepts TCP and never answers the Hello, so no ack ever comes
// back, and the fourth frame of a window-2 session is one too many.
func TestRouterWindowOverflow(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn // accepted and never answered
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		for _, c := range held {
			c.Close()
		}
	})
	_, routed := startRouter(t, []string{ln.Addr().String()}, nil)

	opening := []func(*trace.FrameWriter) error{helloFrame(t, serve.Hello{Benchmark: "gcc", Window: 2})}
	for seq := uint64(1); seq <= 4; seq++ {
		chunk := trace.AppendRecords(binary.AppendUvarint(nil, seq), nil)
		opening = append(opening, frame(serve.FrameRecords, chunk))
	}
	conn, err := net.DialTimeout("tcp", routed, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(clientBytes(t, opening...)); err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFrameReader(conn, 1<<20)
	f, err := fr.Next()
	if err != nil || f.Type != serve.FrameHelloAck {
		t.Fatalf("first answer: frame type %#x, err %v; want a HelloAck", f.Type, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != serve.FrameError {
		t.Fatalf("second answer: frame type %#x, err %v; want a WireError", f.Type, err)
	}
	var we serve.WireError
	if err := json.Unmarshal(f.Payload, &we); err != nil {
		t.Fatal(err)
	}
	if we.Code != serve.CodeOverLimit {
		t.Fatalf("error %+v, want code %s", we, serve.CodeOverLimit)
	}
}

// TestRouterDialEndsWithSession: a placement dial belongs to its session.
// The router's only backend accepts TCP and never answers the Hello. A
// window-2 session's open sends the router dialing it; the client then
// overruns the window, the session ends with over-limit, and
// the backend must see the waiting connection close well before the dial's
// own timeout, and no second dial.
func TestRouterDialEndsWithSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 8) // one per dial; a second fails the test
	closed := make(chan time.Time, 8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var held []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A health probe connects and closes; a dial writes
				// its preamble and Hello, then waits for an answer.
				if _, err := c.Read(make([]byte, 1)); err != nil {
					return
				}
				accepted <- struct{}{}
				io.Copy(io.Discard, c) // returns when the router closes it
				closed <- time.Now()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	const dialTimeout = 5 * time.Second
	_, routed := startRouter(t, []string{ln.Addr().String()}, func(c *Config) { c.DialTimeout = dialTimeout })

	conn, err := net.DialTimeout("tcp", routed, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	records := func(seq uint64) func(*trace.FrameWriter) error {
		return frame(serve.FrameRecords, trace.AppendRecords(binary.AppendUvarint(nil, seq), nil))
	}
	if _, err := conn.Write(clientBytes(t, helloFrame(t, serve.Hello{Benchmark: "gcc", Window: 2}), records(1))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the router never dialed the backend")
	}
	fw := trace.NewFrameWriter(conn)
	for seq := uint64(2); seq <= 4; seq++ {
		if err := records(seq)(fw); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := trace.NewFrameReader(conn, 1<<20)
	for _, want := range []uint64{serve.FrameHelloAck, serve.FrameError} {
		if f, err := fr.Next(); err != nil || f.Type != want {
			t.Fatalf("answer: frame type %#x, err %v; want %#x", f.Type, err, want)
		}
	}
	ended := time.Now()
	select {
	case at := <-closed:
		if d := at.Sub(ended); d > dialTimeout/5 {
			t.Errorf("the backend connection closed %v after its session ended", d)
		}
	case <-time.After(dialTimeout / 2):
		t.Fatalf("the backend connection outlived its session by %v", dialTimeout/2)
	}
	select {
	case <-accepted:
		t.Error("the router dialed again for a session that had ended")
	case <-time.After(500 * time.Millisecond):
	}
}

// TestRouterDialsAtOpen: the router places a session and dials its backend
// as the session opens, before any records frame. Its only backend is a raw
// TCP listener. The client sends its Hello and nothing more, and the
// listener must still read the IBPS preamble and the forwarded Hello, which
// carries the router's session id.
func TestRouterDialsAtOpen(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hellos := make(chan serve.Hello, 8)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var held []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				var pre [len(serve.Preamble) + 1]byte
				if _, err := io.ReadFull(c, pre[:]); err != nil {
					return // a health probe connects and closes
				}
				if string(pre[:len(serve.Preamble)]) != serve.Preamble || pre[len(serve.Preamble)] != serve.ProtocolVersion {
					t.Errorf("backend read preamble %q", pre)
					return
				}
				f, err := trace.NewFrameReader(c, 1<<20).Next()
				if err != nil || f.Type != serve.FrameHello {
					t.Errorf("backend's first frame: type %#x, err %v; want a Hello", f.Type, err)
					return
				}
				var h serve.Hello
				if err := json.Unmarshal(f.Payload, &h); err != nil {
					t.Errorf("forwarded Hello %q: %v", f.Payload, err)
					return
				}
				hellos <- h
				io.Copy(io.Discard, c) // returns when the router closes it
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	_, routed := startRouter(t, []string{ln.Addr().String()}, nil)

	conn, err := net.DialTimeout("tcp", routed, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(clientBytes(t, helloFrame(t, serve.Hello{Benchmark: "gcc"}))); err != nil {
		t.Fatal(err)
	}
	f, err := trace.NewFrameReader(conn, 1<<20).Next()
	if err != nil || f.Type != serve.FrameHelloAck {
		t.Fatalf("router's answer: frame type %#x, err %v; want a HelloAck", f.Type, err)
	}
	var ack serve.HelloAck
	if err := json.Unmarshal(f.Payload, &ack); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-hellos:
		if h.Benchmark != "gcc" || h.RouterSession != ack.Session {
			t.Errorf("forwarded Hello: benchmark %q, router session %d; want gcc, %d", h.Benchmark, h.RouterSession, ack.Session)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the backend never read a Hello for a session that sent no records")
	}
}
