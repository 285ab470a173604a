package serve

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/faultio"
	"github.com/oocsb/ibp/internal/trace"
)

func TestAckCodecRoundTrip(t *testing.T) {
	acks := []Ack{
		{},
		{Seq: 1, Records: 512, Executed: 300, Misses: 40, TotalExecuted: 300, TotalMisses: 40, TotalNoPrediction: 7},
		{Seq: 1 << 40, Records: 1, Executed: 1 << 30, Misses: 1 << 29, TotalExecuted: 1 << 31, TotalMisses: 1 << 30, TotalNoPrediction: 1 << 20},
	}
	for _, a := range acks {
		got, err := DecodeAck(appendAck(nil, a))
		if err != nil {
			t.Fatalf("%+v: %v", a, err)
		}
		if got != a {
			t.Fatalf("round trip %+v -> %+v", a, got)
		}
	}
	if _, err := DecodeAck(append(appendAck(nil, acks[1]), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeAck(appendAck(nil, acks[1])[:3]); err == nil {
		t.Fatal("truncated ack accepted")
	}
}

func TestAckMissRate(t *testing.T) {
	if r := (Ack{}).MissRate(); r != 0 {
		t.Fatalf("zero ack miss rate %v", r)
	}
	if r := (Ack{TotalExecuted: 200, TotalMisses: 50}).MissRate(); r != 25 {
		t.Fatalf("miss rate %v, want 25", r)
	}
}

func TestEventsCodecRoundTrip(t *testing.T) {
	// Decoded events hold the wire fields only, with Component -1 like a sim
	// event from a predictor that records no attribution.
	evs := []EventRec{
		{PC: 0x1000, Predicted: 0x2000, Actual: 0x2000, HasPred: true, Component: -1},
		{PC: 0x1004, Predicted: 0, Actual: 0x3000, Miss: true, Component: -1},
		{PC: 0x0ffc, Predicted: 0x2004, Actual: 0x2008, HasPred: true, Miss: true, Warmup: true, Component: -1},
		{PC: 0xfffffffc, Predicted: 0x4, Actual: 0x8, HasPred: true, Component: -1},
	}
	payload := appendEvents(nil, 42, evs)
	// The wire bytes are pinned: fields off the wire must not leak into it.
	if got, want := hex.EncodeToString(payload), "2a048010802080200102ff1f801002038220fb0f07ff0fff1fff1f01"; got != want {
		t.Fatalf("events payload %s, want %s", got, want)
	}
	withDetail := append([]EventRec(nil), evs...)
	for i := range withDetail {
		withDetail[i].Seq, withDetail[i].Pattern, withDetail[i].Component = uint64(i+1), 0xabc, 2
		withDetail[i].TableHit, withDetail[i].Evicted = true, true
	}
	if !bytes.Equal(appendEvents(nil, 42, withDetail), payload) {
		t.Fatal("attribution fields changed the events wire bytes")
	}
	seq, got, err := decodeEvents(payload, 16)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("seq %d", seq)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, evs)
	}
	if _, _, err := decodeEvents(payload, 2); err == nil {
		t.Fatal("count over max accepted")
	}
	if _, _, err := decodeEvents(append(payload, 9), 16); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, _, err := decodeEvents(payload[:cut], 16); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, evs, err := decodeEvents(appendEvents(nil, 7, nil), 16); err != nil || len(evs) != 0 {
		t.Fatalf("empty events frame: %v, %d events", err, len(evs))
	}
}

func TestRecordsFrameCodecRoundTrip(t *testing.T) {
	tr := benchTrace(t, "xlisp", 400)
	payload := appendRecordsFrame(nil, 9, tr)
	seq, got, err := decodeRecordsFrame(payload, len(tr))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 {
		t.Fatalf("seq %d", seq)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("records round trip mismatch")
	}
	if _, _, err := decodeRecordsFrame(payload, len(tr)-1); err == nil {
		t.Fatal("record count over max accepted")
	}
}

func TestWireErrorAndPayloadJSON(t *testing.T) {
	we := &WireError{Code: CodeBadSeq, Msg: "frame seq 3, want 2"}
	if s := we.Error(); !strings.Contains(s, CodeBadSeq) || !strings.Contains(s, "want 2") {
		t.Fatalf("error string %q", s)
	}
	var h Hello
	// Unknown fields are tolerated (a newer peer may extend the payloads)...
	if err := unmarshalPayload([]byte(`{"Benchmark":"gcc","Bogus":1}`), &h); err != nil || h.Benchmark != "gcc" {
		t.Fatalf("forward-compatible decode: %v, %+v", err, h)
	}
	// ...but malformed JSON is not.
	if err := unmarshalPayload([]byte(`{"Benchmark":`), &h); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if err := unmarshalPayload(marshalJSON(Hello{Benchmark: "gcc"}), &h); err != nil || h.Benchmark != "gcc" {
		t.Fatalf("round trip: %v, %+v", err, h)
	}
}

// cleanClientStream builds the full byte stream of a well-formed session:
// preamble, Hello, two records frames, Done.
func cleanClientStream(t *testing.T) []byte {
	t.Helper()
	tr := benchTrace(t, "xlisp", 300)
	var buf bytes.Buffer
	buf.WriteString(Preamble)
	buf.WriteByte(ProtocolVersion)
	fw := trace.NewFrameWriter(&buf)
	for _, f := range []struct {
		typ     uint64
		payload []byte
	}{
		{FrameHello, marshalJSON(Hello{Benchmark: "fault"})},
		{FrameRecords, appendRecordsFrame(nil, 1, tr[:150])},
		{FrameRecords, appendRecordsFrame(nil, 2, tr[150:])},
		{FrameDone, nil},
	} {
		if err := fw.WriteFrame(f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayRaw writes a (possibly corrupted) client byte stream to a live server
// and reads responses until the server closes the connection. The assertion
// is survival: the server must terminate every such session without hanging
// (a panic would kill the whole test process).
func replayRaw(t *testing.T, addr string, stream []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	conn.Write(stream) // short writes are fine: the server sees a truncation
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	io.Copy(io.Discard, conn)
}

func TestServeFaultInjectedStreams(t *testing.T) {
	// The server must survive a bit flip at any position and a truncation at
	// any length: frame checksums catch payload damage, limits catch length
	// damage, and either way the session dies cleanly.
	_, addr := startServer(t, Config{Limits: Limits{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}})
	clean := cleanClientStream(t)

	for off := 0; off < len(clean); off += 5 {
		flipped, err := io.ReadAll(faultio.FlipBit(bytes.NewReader(clean), int64(off), 0x10))
		if err != nil {
			t.Fatal(err)
		}
		replayRaw(t, addr, flipped)
	}
	for n := 0; n < len(clean); n += 9 {
		cut, err := io.ReadAll(faultio.TruncateAfter(bytes.NewReader(clean), int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		replayRaw(t, addr, cut)
	}
	// The pristine stream must still work after all that abuse.
	replayRaw(t, addr, clean)
}
