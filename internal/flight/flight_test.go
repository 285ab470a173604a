package flight

import (
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHopNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for h := Hop(0); h < NumHops; h++ {
		n := h.String()
		if n == "" || n == "unknown" {
			t.Errorf("hop %d has no name", h)
		}
		if seen[n] {
			t.Errorf("duplicate hop name %q", n)
		}
		seen[n] = true
	}
	if Hop(250).String() != "unknown" {
		t.Error("out-of-range hop must stringify as unknown")
	}
}

func TestSpanLifecycle(t *testing.T) {
	r := NewRecorder(Options{Service: "test", Capacity: 8})
	tr := r.Tracer("t1", 42)
	if tr == nil {
		t.Fatal("enabled recorder returned nil tracer")
	}
	sp := tr.Start(7)
	now := time.Now().UnixNano()
	sp.StampAt(HopServerRecv, now)
	sp.StampAt(HopServerPredict, now+1000)
	if d := sp.Between(HopServerRecv, HopServerPredict); d != 1000 {
		t.Errorf("Between = %v, want 1µs", d)
	}
	sp.SetRecords(2048)
	sp.Finish()

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("ring holds %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.TraceID != "t1" || got.Session != 42 || got.Seq != 7 || got.Records != 2048 {
		t.Errorf("span identity = %+v", got)
	}
	if got.Hops[HopServerRecv] != now || got.Hops[HopServerPredict] != now+1000 {
		t.Errorf("hop stamps = %v", got.Hops)
	}
	if got.Hops[HopRouterRecv] != 0 {
		t.Error("unstamped hop must stay 0")
	}
	if st := r.Stats(); st.Recorded != 1 || st.Service != "test" {
		t.Errorf("stats = %+v", st)
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRecorder(Options{Service: "test", Capacity: 4})
	tr := r.Tracer("t", 1)
	for seq := uint64(1); seq <= 10; seq++ {
		sp := tr.Start(seq)
		sp.StampAt(HopServerRecv, time.Now().UnixNano())
		sp.Finish()
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(spans))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if spans[i].Seq != want {
			t.Errorf("spans[%d].Seq = %d, want %d (oldest-first)", i, spans[i].Seq, want)
		}
	}
	if r.Stats().Recorded != 10 {
		t.Errorf("Recorded = %d, want 10", r.Stats().Recorded)
	}
}

// TestSpanRecordZeroAllocs is the per-frame span contract: Start, the hop
// stamps and Finish allocate nothing, with tracing off (nil recorder, whose
// Tracer is free too) and on (Finish copies the span into a live ring). The
// span crosses a channel between Start and Finish, as it rides a frame's
// hand-offs in the daemons.
func TestSpanRecordZeroAllocs(t *testing.T) {
	frame := func(tr *Tracer, hand chan Span) {
		hand <- tr.Start(9)
		sp := <-hand
		sp.StampAt(HopServerRecv, 100)
		sp.StampAt(HopServerEnqueue, 123)
		sp.SetRecords(100)
		sp.Finish()
	}
	t.Run("nil recorder", func(t *testing.T) {
		var nilRec *Recorder
		hand := make(chan Span, 1)
		if n := testing.AllocsPerRun(1000, func() {
			frame(nilRec.Tracer("id", 1), hand)
		}); n != 0 {
			t.Errorf("nil-recorder span path allocates %v/op", n)
		}
	})
	t.Run("enabled recorder", func(t *testing.T) {
		tr := NewRecorder(Options{Service: "test", Capacity: 64}).Tracer("id", 1)
		hand := make(chan Span, 1)
		if n := testing.AllocsPerRun(1000, func() {
			frame(tr, hand)
		}); n != 0 {
			t.Errorf("enabled-recorder span path allocates %v/op", n)
		}
	})
}

// BenchmarkSpanFinish is the bottom-up cost of tracing a frame: the serving
// daemons stamp every frame either way, so tracing on differs from off only
// by Finish's copy into the ring. Each op is one frame's span: Start, the
// five server-side hop stamps and Finish.
func BenchmarkSpanFinish(b *testing.B) {
	for _, bc := range []struct {
		name string
		rec  *Recorder
	}{
		{"nil", nil},
		{"enabled", NewRecorder(Options{Service: "bench"})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := bc.rec.Tracer("bench", 1)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				sp := tr.Start(uint64(i))
				for h := HopServerRecv; h <= HopServerAckWrite; h++ {
					sp.StampAt(h, int64(i))
				}
				sp.Finish()
			}
		})
	}
}

// TestRecorderConcurrentRace hammers concurrent span recording, Spans, and
// dumps; CI runs it under -race.
func TestRecorderConcurrentRace(t *testing.T) {
	r := NewRecorder(Options{Service: "race", Capacity: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(session uint64) {
			defer wg.Done()
			seq := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq++
				tr := r.Tracer("race", session)
				sp := tr.Start(seq)
				now := time.Now().UnixNano()
				sp.StampAt(HopServerRecv, now)
				sp.StampAt(HopServerPredict, now+1)
				sp.Finish()
			}
		}(uint64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = r.Spans()
			_ = r.Dump()
		}
		close(stop)
	}()
	wg.Wait()
}

func TestSlowFrameLogging(t *testing.T) {
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, nil))
	r := NewRecorder(Options{Service: "test", Capacity: 8, SLO: time.Millisecond, Log: log})
	r.logEvery = 1
	tr := r.Tracer("slow", 1)

	fast := tr.Start(1)
	now := time.Now().UnixNano()
	fast.StampAt(HopServerRecv, now)
	fast.StampAt(HopServerAckWrite, now+int64(100*time.Microsecond))
	fast.Finish()
	if r.Stats().SlowFrames != 0 {
		t.Fatal("fast frame counted as slow")
	}
	if buf.Len() != 0 {
		t.Fatalf("fast frame logged: %s", buf.String())
	}

	slow := tr.Start(2)
	slow.StampAt(HopServerRecv, now)
	slow.StampAt(HopServerDequeue, now+int64(4*time.Millisecond))
	slow.StampAt(HopServerAckWrite, now+int64(5*time.Millisecond))
	slow.Finish()
	if r.Stats().SlowFrames != 1 {
		t.Fatalf("SlowFrames = %d, want 1", r.Stats().SlowFrames)
	}
	out := buf.String()
	for _, want := range []string{"slow frame over SLO", "traceId=slow", "seq=2", "server-dequeue"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-frame log missing %q: %s", want, out)
		}
	}
}

func TestSlowLogRateLimit(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))
	r := NewRecorder(Options{Service: "test", Capacity: 8, SLO: time.Millisecond, Log: log})
	r.logEvery = time.Hour.Nanoseconds()
	tr := r.Tracer("s", 1)
	now := time.Now().UnixNano()
	for seq := uint64(1); seq <= 20; seq++ {
		sp := tr.Start(seq)
		sp.StampAt(HopServerRecv, now)
		sp.StampAt(HopServerAckWrite, now+int64(10*time.Millisecond))
		sp.Finish()
	}
	if got := r.Stats().SlowFrames; got != 20 {
		t.Errorf("SlowFrames = %d, want 20 (counting is not rate-limited)", got)
	}
	mu.Lock()
	lines := strings.Count(buf.String(), "slow frame over SLO")
	mu.Unlock()
	if lines != 1 {
		t.Errorf("%d slow-frame log lines, want exactly 1 within the rate window", lines)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestDumpHandlerJSON(t *testing.T) {
	r := NewRecorder(Options{Service: "ibpserved", Capacity: 8})
	tr := r.Tracer("t9", 3)
	sp := tr.Start(1)
	now := time.Now().UnixNano()
	sp.StampAt(HopServerRecv, now)
	sp.StampAt(HopServerPredict, now+1)
	sp.SetRecords(512)
	sp.Finish()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.Service != "ibpserved" || d.Recorded != 1 || len(d.Spans) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	s := d.Spans[0]
	if s.TraceID != "t9" || s.Session != 3 || s.Seq != 1 || s.Records != 512 {
		t.Errorf("span = %+v", s)
	}
	if _, ok := s.Hops["server-recv"]; !ok {
		t.Errorf("hops missing server-recv: %v", s.Hops)
	}
	if _, ok := s.Hops["router-recv"]; ok {
		t.Errorf("unstamped hop serialized: %v", s.Hops)
	}

	// The nil recorder serves an empty dump rather than panicking.
	var nilRec *Recorder
	rec2 := httptest.NewRecorder()
	nilRec.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/", nil))
	if err := json.Unmarshal(rec2.Body.Bytes(), &d); err != nil {
		t.Fatalf("nil dump not JSON: %v", err)
	}
}

func TestNextTraceID(t *testing.T) {
	r := NewRecorder(Options{Service: "ibprouter"})
	a, b := r.NextTraceID(), r.NextTraceID()
	if a == b || !strings.HasPrefix(a, "ibprouter-") {
		t.Errorf("trace IDs %q, %q", a, b)
	}
	var nilRec *Recorder
	if nilRec.NextTraceID() != "" {
		t.Error("nil recorder must mint empty trace IDs")
	}
}
