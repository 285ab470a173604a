package experiment

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/stats"
	"github.com/oocsb/ibp/internal/workload"
)

// tinyContext returns a context over a reduced suite with very short traces,
// fast enough to smoke-test every experiment.
func tinyContext(t *testing.T) *Context {
	t.Helper()
	ctx := NewContext(1500)
	var suite []workload.Config
	for _, name := range []string{"idl", "eqn", "xlisp", "perl", "gcc", "go"} {
		cfg, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, cfg)
	}
	ctx.Suite = suite
	return ctx
}

// expectedIDs is the experiment inventory promised by DESIGN.md.
var expectedIDs = []string{
	"table1", "fig2", "fig5", "fig7", "fig9", "fig10", "table5",
	"fig11", "fig12", "fig14", "fig15", "fig16", "fig17",
	"fig18", "table6", "tableA1", "tableA2",
	"abl-update", "abl-cond", "abl-addr", "abl-meta",
	"ext-ppm", "ext-shared", "ext-3comp",
	"ext-next", "ext-uneven", "ext-ittage", "cost",
	"ras", "rel-tcache", "sites", "limits", "vm", "ctxswitch",
}

func TestRegistryComplete(t *testing.T) {
	have := make(map[string]bool)
	for _, e := range All() {
		if have[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		have[e.ID] = true
		if e.Artifact == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely registered", e.ID)
		}
	}
	for _, id := range expectedIDs {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, err := ByID("fig9"); err != nil {
		t.Errorf("ByID(fig9): %v", err)
	}
	if _, err := ByID("nonesuch"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestContextTraceCaching(t *testing.T) {
	ctx := tinyContext(t)
	cfg := ctx.Suite[0]
	a := ctx.Trace(cfg)
	b := ctx.Trace(cfg)
	if &a[0] != &b[0] {
		t.Error("trace not cached")
	}
	if len(a) != ctx.TraceLen {
		t.Errorf("cached trace has %d records, want %d indirect", len(a), ctx.TraceLen)
	}
	for _, r := range a {
		if !r.Kind.Indirect() {
			t.Fatal("cached trace contains non-indirect records")
		}
	}
	s := ctx.Summary(cfg)
	if s.Indirect != ctx.TraceLen {
		t.Errorf("summary indirect = %d", s.Indirect)
	}
	if s.Conds == 0 {
		t.Error("summary lost conditional counts (must come from the full trace)")
	}
}

func TestSweepConstructorErrors(t *testing.T) {
	ctx := tinyContext(t)
	wantErr := errors.New("boom")
	_, err := ctx.Sweep(func() (core.Predictor, error) { return nil, wantErr })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Sweep error = %v", err)
	}
}

func TestForEachCoversAll(t *testing.T) {
	seen := make([]bool, 100)
	err := forEach(context.Background(), len(seen), func(i int) error {
		seen[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
	if err := forEach(context.Background(), 0, func(int) error { return nil }); err != nil {
		t.Errorf("forEach(0): %v", err)
	}
}

// TestForEachStopsDispatchAfterError: once a cell fails, no fresh cells may
// start (in-flight ones finish). With a single worker the schedule is
// deterministic: only the failing cell runs.
func TestForEachStopsDispatchAfterError(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var ran atomic.Int32
	boom := errors.New("boom")
	err := forEach(context.Background(), 50, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Cell 0 fails; the dispatcher may have handed at most one more cell
	// to the worker before observing the failure.
	if n := ran.Load(); n > 2 {
		t.Errorf("%d cells ran after the first failure", n)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	err := forEach(context.Background(), 4, func(i int) error {
		if i == 2 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if !strings.Contains(err.Error(), "cell 2") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
}

func TestForEachCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	started := make(chan struct{}, 1)
	err := func() error {
		go func() {
			<-started
			cancel()
		}()
		return forEach(cctx, 1000, func(i int) error {
			ran.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(time.Millisecond)
			return nil
		})
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); int(n) >= 1000 {
		t.Errorf("cancellation did not stop dispatch (%d cells ran)", n)
	}
}

// TestSweepDegradesPanickingCell: a panic while generating or simulating
// one benchmark must not kill the sweep — the other cells still report, and
// the failure is recorded as an error row.
func TestSweepDegradesPanickingCell(t *testing.T) {
	ctx := tinyContext(t)
	// Poison one cell: an invalid workload config makes MustGenerate panic
	// inside that cell only.
	ctx.Suite[2].Sites = 0
	victim := ctx.Suite[2].Name
	rates, err := ctx.Sweep(func() (core.Predictor, error) {
		return core.NewBTB(nil, core.UpdateTwoMiss), nil
	})
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	if _, ok := rates[victim]; ok {
		t.Errorf("panicking cell %s produced a rate", victim)
	}
	if len(rates) != len(ctx.Suite)-1 {
		t.Errorf("got %d rates, want %d", len(rates), len(ctx.Suite)-1)
	}
	fails := ctx.TakeFailures()
	if len(fails) != 1 || fails[0].Bench != victim {
		t.Fatalf("failures = %v, want one for %s", fails, victim)
	}
	if !strings.Contains(fails[0].Err.Error(), "panicked") {
		t.Errorf("failure does not mention the panic: %v", fails[0].Err)
	}
	// The list is drained.
	if again := ctx.TakeFailures(); len(again) != 0 {
		t.Errorf("TakeFailures not drained: %v", again)
	}
}

func TestSweepCancelled(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := tinyContext(t).WithContext(cctx)
	_, err := ctx.Sweep(func() (core.Predictor, error) {
		return core.NewBTB(nil, core.UpdateTwoMiss), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ctx.TakeFailures()) != 0 {
		t.Error("cancellation recorded as a degraded cell failure")
	}
}

// TestAllExperimentsRun smoke-tests every registered experiment on the tiny
// context and checks the outputs render.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		e := e
		if seen[e.ID] {
			continue
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			ctx := tinyContext(t)
			tables, err := e.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s returned no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows()) == 0 || len(tb.Cols) == 0 {
					t.Errorf("%s: empty table %q", e.ID, tb.Title)
				}
				var buf bytes.Buffer
				if err := tb.Render(&buf); err != nil {
					t.Errorf("%s: render: %v", e.ID, err)
				}
				if err := tb.WriteCSV(&buf); err != nil {
					t.Errorf("%s: csv: %v", e.ID, err)
				}
			}
		})
	}
}

// TestFig2Shape checks the fig2 experiment reproduces the §3.1 claim on the
// tiny context: BTB-2bc beats the standard BTB on average.
func TestFig2Shape(t *testing.T) {
	ctx := tinyContext(t)
	tables, err := ByIDMust(t, "fig2").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	btb, ok1 := tb.Get(stats.GroupAVG, "btb")
	twobc, ok2 := tb.Get(stats.GroupAVG, "btb-2bc")
	if !ok1 || !ok2 {
		t.Fatalf("missing AVG cells")
	}
	if twobc >= btb {
		t.Errorf("BTB-2bc (%.2f) should beat BTB (%.2f)", twobc, btb)
	}
}

// TestFig9Shape checks the headline curve on the tiny context: two-level
// beats BTB substantially, and very long paths regress.
func TestFig9Shape(t *testing.T) {
	ctx := tinyContext(t)
	tables, err := ByIDMust(t, "fig9").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	p0, _ := tb.Get(stats.GroupAVG, "p=0")
	best := math.Inf(1)
	for _, c := range []string{"p=1", "p=2", "p=3", "p=4", "p=6"} {
		if v, ok := tb.Get(stats.GroupAVG, c); ok && v < best {
			best = v
		}
	}
	p18, _ := tb.Get(stats.GroupAVG, "p=18")
	if best >= p0/1.8 {
		t.Errorf("two-level best %.2f vs BTB %.2f: improvement too small", best, p0)
	}
	if p18 <= best {
		t.Errorf("p=18 (%.2f) should regress past the minimum (%.2f)", p18, best)
	}
}

// TestTable5Shape: xor keys track concatenation closely (§4.2).
func TestTable5Shape(t *testing.T) {
	ctx := tinyContext(t)
	tables, err := ByIDMust(t, "table5").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for _, p := range []string{"p=2", "p=4", "p=6"} {
		diff, ok := tb.Get("Xor-Concat", p)
		if !ok {
			t.Fatalf("missing %s", p)
		}
		if math.Abs(diff) > 3 {
			t.Errorf("%s: xor vs concat differ by %.2f points, paper reports <1", p, diff)
		}
	}
}

// ByIDMust fetches a registered experiment or fails the test.
func ByIDMust(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
