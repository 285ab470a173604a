package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/trace"
)

// handshakeOutcome dials addr, writes raw, and reports what the front end
// answered: "close" for a bare close, "error:<code>" for a WireError frame,
// "ack" for a HelloAck, or "ack trace=<id>" for one echoing a trace ID.
func handshakeOutcome(t *testing.T, addr string, raw []byte) string {
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
	f, err := trace.NewFrameReader(conn, 1<<20).Next()
	switch {
	case errors.Is(err, io.EOF):
		return "close"
	case err != nil:
		t.Fatalf("reading the answer: %v", err)
	case f.Type == serve.FrameHelloAck:
		var ack serve.HelloAck
		if err := json.Unmarshal(f.Payload, &ack); err != nil {
			t.Fatalf("HelloAck payload %q: %v", f.Payload, err)
		}
		if ack.TraceID != "" {
			return "ack trace=" + ack.TraceID
		}
		return "ack"
	case f.Type == serve.FrameError:
		var we serve.WireError
		if err := json.Unmarshal(f.Payload, &we); err != nil {
			t.Fatalf("error frame payload %q: %v", f.Payload, err)
		}
		return "error:" + we.Code
	}
	t.Fatalf("unexpected frame type %#x", f.Type)
	return ""
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

// TestHandshakeParity runs one table of handshakes against ibpserved's
// Server and ibprouter's Router: one front end, so the same verdicts. Both
// daemons run untraced, so an echoed trace ID is the Hello's own.
func TestHandshakeParity(t *testing.T) {
	_, direct := startServe(t)
	_, routed := startRouter(t, []string{direct}, nil)

	badPath := defaultFlags()
	badPath.Path = -3
	goodHello := clientBytes(t, helloFrame(t, serve.Hello{Benchmark: "gcc"}))
	// A first frame whose checksum does not match its payload.
	corrupt := bytes.Clone(goodHello)
	corrupt[len(corrupt)-1] ^= 0xff

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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotServe := handshakeOutcome(t, direct, tc.raw)
			gotRouter := handshakeOutcome(t, routed, tc.raw)
			if gotServe != tc.want || gotRouter != tc.want {
				t.Errorf("serve answered %s, router %s; want %s from both", gotServe, gotRouter, tc.want)
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
