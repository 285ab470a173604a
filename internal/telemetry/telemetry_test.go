package telemetry

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"
)

// TestCounterAtomicity hammers one counter from many goroutines; under
// -race this also proves the update path is data-race free.
func TestCounterAtomicity(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWorker {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	r := New()
	g := r.Gauge("inflight")
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Load(); got != 0 {
		t.Errorf("gauge = %v after balanced adds, want 0", got)
	}
	g.Set(42.5)
	if got := g.Load(); got != 42.5 {
		t.Errorf("gauge = %v, want 42.5", got)
	}
}

// TestNopRegistryZeroAllocs is the disabled-instrumentation guarantee: every
// metric update through nil handles must be allocation-free (and, trivially,
// crash-free).
func TestNopRegistryZeroAllocs(t *testing.T) {
	var r *Registry // the disabled registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(-1)
		h.Observe(time.Millisecond)
		_ = c.Load()
		_ = g.Load()
	})
	if allocs != 0 {
		t.Errorf("nop instrumentation allocates: %v allocs/op", allocs)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
}

// TestEnabledUpdateZeroAllocs pins the other half of the overhead story:
// live counter/gauge/histogram updates don't allocate either.
func TestEnabledUpdateZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(7)
		g.Add(0.5)
		h.Observe(time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("live instrumentation allocates: %v allocs/op", allocs)
	}
}

// TestSnapshotWhileUpdating reads snapshots concurrently with writers; every
// observed value must be one the counter really held (monotonically growing),
// and under -race this proves snapshotting doesn't race with updates.
func TestSnapshotWhileUpdating(t *testing.T) {
	r := New()
	c := r.Counter("grows")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
			}
		}
	}()
	var last float64
	for range 100 {
		s := r.Snapshot()
		v := s["grows"]
		if v < last {
			t.Fatalf("snapshot went backwards: %v after %v", v, last)
		}
		last = v
	}
	close(stop)
	wg.Wait()
	if finals := r.Snapshot(); finals["grows"] != float64(c.Load()) {
		t.Errorf("final snapshot %v != counter %d", finals["grows"], c.Load())
	}
}

func TestHandlesAreStable(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name returned distinct counters")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Error("same name returned distinct gauges")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Error("same name returned distinct histograms")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New()
	c := r.Counter("moved")
	r.Counter("idle")
	before := r.Snapshot()
	c.Add(5)
	d := r.Snapshot().Delta(before)
	if len(d) != 1 || d["moved"] != 5 {
		t.Errorf("delta = %v, want {moved: 5}", d)
	}
	// A key absent from prev counts from zero.
	d2 := Snapshot{"new": 3}.Delta(Snapshot{})
	if d2["new"] != 3 {
		t.Errorf("delta vs empty = %v", d2)
	}
}

func TestSnapshotStringSorted(t *testing.T) {
	s := Snapshot{"b": 2, "a": 1}
	if got := s.String(); got != "a 1\nb 2\n" {
		t.Errorf("String() = %q", got)
	}
}

func TestDefaultEnableDisable(t *testing.T) {
	if Default() != nil {
		t.Fatal("telemetry enabled at test start")
	}
	r := Enable(nil)
	if r == nil || Default() != r {
		t.Fatal("Enable(nil) did not install a fresh registry")
	}
	Disable()
	if Default() != nil {
		t.Error("Disable left a registry installed")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("requests_total").Add(7)
	r.Gauge("inflight").Set(2)
	r.Histogram("frame").Observe(2 * time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		// Every family carries HELP + TYPE headers.
		"# HELP requests_total ",
		"# TYPE requests_total counter\nrequests_total 7\n",
		"# TYPE inflight gauge\ninflight 2\n",
		// Histograms expose cumulative buckets, totals, and quantile gauges.
		"# TYPE frame histogram\n",
		"frame_bucket{le=\"+Inf\"} 1\nframe_sum 0.002\nframe_count 1\n",
		"# TYPE frame_p99_ns gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "frame_ns") || strings.Contains(out, "summary") {
		t.Errorf("histogram rendered with snapshot-style frame_ns line or as a summary:\n%s", out)
	}
	// The single 2ms observation's bucket must cover 0.002s.
	if !strings.Contains(out, "frame_bucket{le=\"0.002") {
		t.Errorf("missing 2ms histogram bucket:\n%s", out)
	}
}

// TestServeMetricsLive drives the HTTP endpoint while a goroutine keeps
// updating metrics — the scrape path must serve fresh values mid-run.
func TestServeMetricsLive(t *testing.T) {
	r := New()
	c := r.Counter("live_total")
	srv, addr, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Inc()
			}
		}
	}()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "live_total") {
		t.Errorf("/metrics missing live_total:\n%s", out)
	}
	if out := get("/metrics?format=json"); !strings.Contains(out, "\"live_total\"") {
		t.Errorf("/metrics?format=json missing live_total:\n%s", out)
	}
	if out := get("/vars"); !strings.Contains(out, "\"live_total\"") {
		t.Errorf("/vars missing live_total:\n%s", out)
	}
	close(stop)
	wg.Wait()
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug":   slog.LevelDebug,
		"":        slog.LevelInfo,
		"info":    slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	off, err := ParseLevel("off")
	if err != nil || off <= slog.LevelError {
		t.Errorf("ParseLevel(off) = %v, %v; want above error", off, err)
	}
	if _, err := ParseLevel("shouty"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	log := NewLogger(&b, slog.LevelWarn)
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info leaked through warn level: %s", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "k=v") {
		t.Errorf("warn line malformed: %s", out)
	}
}
