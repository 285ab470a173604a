package serve

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
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
	seq, got, err := decodeEvents(nil, payload, 16)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("seq %d", seq)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, evs)
	}
	if _, _, err := decodeEvents(nil, payload, 2); err == nil {
		t.Fatal("count over max accepted")
	}
	if _, _, err := decodeEvents(nil, append(payload, 9), 16); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 1; cut < len(payload); cut++ {
		if _, _, err := decodeEvents(nil, payload[:cut], 16); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, evs, err := decodeEvents(nil, appendEvents(nil, 7, nil), 16); err != nil || len(evs) != 0 {
		t.Fatalf("empty events frame: %v, %d events", err, len(evs))
	}
}

// TestEventsCodecRandomRoundTrip round-trips random events through
// appendEvents and decodeEvents, decoding every frame into the one slice
// the client's receive loop would reuse, and rejects every cut of each
// payload and a trailing byte.
func TestEventsCodecRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	word := func() uint32 { return rng.Uint32() &^ 3 } // targets are word aligned
	var dst []EventRec
	for round := range 300 {
		evs := make([]EventRec, rng.IntN(48))
		for i := range evs {
			evs[i] = EventRec{
				PC: word(), Predicted: word(), Actual: word(), Component: -1,
				HasPred: rng.IntN(2) == 0, Miss: rng.IntN(2) == 0, Warmup: rng.IntN(4) == 0,
			}
			if rng.IntN(3) == 0 && i > 0 { // small deltas too, as real traces have
				evs[i].PC = evs[i-1].PC + 4*uint32(rng.IntN(16))
			}
		}
		seq := rng.Uint64()
		payload := appendEvents(nil, seq, evs)
		gotSeq, got, err := decodeEvents(dst, payload, len(evs))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if gotSeq != seq || !slices.Equal(got, evs) {
			t.Fatalf("round %d: seq %d, %d events; want seq %d, %d events\n got %+v\nwant %+v", round, gotSeq, len(got), seq, len(evs), got, evs)
		}
		dst = got
		for cut := range len(payload) {
			if _, _, err := decodeEvents(dst, payload[:cut], len(evs)); err == nil {
				t.Fatalf("round %d: cut at byte %d of %d accepted", round, cut, len(payload))
			}
		}
		if _, _, err := decodeEvents(dst, append(payload, 0), len(evs)); err == nil {
			t.Fatalf("round %d: trailing byte accepted", round)
		}
	}
}

// TestDecodeEventsZeroAllocs pins the client's events decode at zero
// allocations per frame once the slice it reuses has grown to the frame.
func TestDecodeEventsZeroAllocs(t *testing.T) {
	evs := make([]EventRec, 256)
	for i := range evs {
		evs[i] = EventRec{PC: 0x1000 + 4*uint32(i%17), Predicted: 0x2000, Actual: 0x2000 + 8*uint32(i%3), HasPred: true, Miss: i%3 != 0, Component: -1}
	}
	payload := appendEvents(nil, 77, evs)
	_, dst, err := decodeEvents(nil, payload, len(evs))
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		_, dst, err = decodeEvents(dst, payload, len(evs))
		if err != nil || len(dst) != len(evs) {
			t.Fatalf("%d events, %v", len(dst), err)
		}
	}); avg != 0 {
		t.Fatalf("decoding a %d-event frame into a warm slice allocates %.1f times, want 0", len(evs), avg)
	}
}

func TestRecordsFrameCodecRoundTrip(t *testing.T) {
	tr := benchTrace(t, "xlisp", 400)
	payload := appendRecordsFrame(nil, 9, tr)
	chunk, we := SplitRecordsFrame(payload, 9)
	if we != nil {
		t.Fatal(we)
	}
	it, err := trace.NewRecordIter(chunk, len(tr))
	if err != nil {
		t.Fatal(err)
	}
	got := make(trace.Trace, it.Len())
	got = got[:it.NextBatch(got)]
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("records round trip mismatch")
	}
	if _, err := trace.NewRecordIter(chunk, len(tr)-1); err == nil {
		t.Fatal("record count over max accepted")
	}
	if _, we := SplitRecordsFrame(payload, 8); we == nil || we.Code != CodeBadSeq {
		t.Fatalf("seq 9 where 8 is due: %v, want %s", we, CodeBadSeq)
	}
	if _, we := SplitRecordsFrame(nil, 1); we == nil || we.Code != CodeBadFrame {
		t.Fatalf("records frame without seq: %v, want %s", we, CodeBadFrame)
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
