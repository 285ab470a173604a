package experiment

import (
	"strings"
	"sync"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/sim"
)

// TestTraceSingleFlight hammers the trace caches from many goroutines: every
// caller must get the same backing array (the trace is generated exactly once
// and shared), for both the indirect-only and the full variants.
func TestTraceSingleFlight(t *testing.T) {
	ctx := tinyContext(t)
	cfg := ctx.Suite[0]
	const callers = 16
	indirect := make([][]uint32, callers) // first-element addresses as identity
	full := make([][]uint32, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := ctx.Trace(cfg)
			ftr := ctx.FullTrace(cfg)
			indirect[i] = []uint32{tr[0].PC, ftr[0].PC}
			full[i] = []uint32{uint32(len(tr)), uint32(len(ftr))}
		}()
	}
	wg.Wait()
	a := ctx.Trace(cfg)
	fa := ctx.FullTrace(cfg)
	for i := 0; i < callers; i++ {
		if indirect[i][0] != a[0].PC || indirect[i][1] != fa[0].PC {
			t.Fatalf("caller %d saw different trace head", i)
		}
		if int(full[i][0]) != len(a) || int(full[i][1]) != len(fa) {
			t.Fatalf("caller %d saw different trace length", i)
		}
	}
	// Identity check on the cache itself: repeated calls alias one array.
	b := ctx.Trace(cfg)
	if &a[0] != &b[0] {
		t.Error("indirect trace not cached")
	}
	fb := ctx.FullTrace(cfg)
	if &fa[0] != &fb[0] {
		t.Error("full trace not cached")
	}
}

// sweepGrid is a configuration grid wide enough to span multiple sweepChunk
// chunks, mixing table kinds so lanes are genuinely heterogeneous.
func sweepGrid() []core.Config {
	var cfgs []core.Config
	kinds := []string{"tagless", "assoc2", "fullassoc"}
	for p := 0; p <= 5; p++ {
		for _, kind := range kinds {
			cfgs = append(cfgs, boundedConfig(p, 0, kind, 256))
		}
	}
	return cfgs // 18 configs > sweepChunk
}

// TestSweepBatchMatchesSequential is the golden guarantee behind every
// batched experiment: running a grid of configurations through SweepConfigs
// (chunked lanes, shared trace passes, predictor reuse via Reset) must give
// exactly the rates of running each configuration alone.
func TestSweepBatchMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := tinyContext(t)
	cfgs := sweepGrid()
	batched, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ctx.TakeFailures()); n != 0 {
		t.Fatalf("%d degraded cells in healthy sweep", n)
	}
	for i, cfg := range cfgs {
		cfg := cfg
		solo, err := ctx.Sweep(func() (core.Predictor, error) { return core.NewTwoLevel(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(solo) {
			t.Fatalf("config %d: %d benchmarks batched, %d solo", i, len(batched[i]), len(solo))
		}
		for bench, want := range solo {
			if got := batched[i][bench]; got != want {
				t.Errorf("config %d (%s): %s: batched %v != solo %v",
					i, cfg.TableKind, bench, got, want)
			}
		}
	}
}

// TestSweepConfigsKeepsCallerOrder: SweepConfigs runs configurations
// grouped by history spec, yet returns each one's rates at the caller's
// index, and a degraded lane's error names the caller's config index.
func TestSweepConfigsKeepsCallerOrder(t *testing.T) {
	ctx := tinyContext(t)
	// Kind-major with falling path lengths: the spec order differs from
	// the caller's everywhere.
	var cfgs []core.Config
	for _, kind := range []string{"tagless", "assoc2", "fullassoc"} {
		for p := 6; p >= 0; p-- {
			cfgs = append(cfgs, boundedConfig(p, bits.Reverse, kind, 256))
		}
	}
	batched, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := ctx.Sweep(func() (core.Predictor, error) { return core.NewTwoLevel(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		for bench, want := range solo {
			if got := batched[i][bench]; got != want {
				t.Errorf("config %d (%s): %s: batched %v, solo %v", i, cfg.Name(), bench, got, want)
			}
		}
	}

	// Run order [1 0 2] with the middle run lane (caller index 0) dying.
	ok := func() (core.Predictor, error) { return core.NewBTB(nil, core.UpdateTwoMiss), nil }
	dies := func() (core.Predictor, error) { return &panicOnUpdate{}, nil }
	res, err := ctx.sweepSpecs([]SweepSpec{{Mk: ok}, {Mk: dies}, {Mk: ok}}, false, []int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != 0 || len(res[1]) != len(ctx.Suite) || len(res[2]) != len(ctx.Suite) {
		t.Errorf("results by caller index hold %d, %d, %d benchmarks; want 0, %d, %d",
			len(res[0]), len(res[1]), len(res[2]), len(ctx.Suite), len(ctx.Suite))
	}
	fails := ctx.TakeFailures()
	if len(fails) != len(ctx.Suite) {
		t.Fatalf("%d degraded cells, want %d", len(fails), len(ctx.Suite))
	}
	for _, f := range fails {
		if !strings.HasPrefix(f.Err.Error(), "config 0:") {
			t.Errorf("%s: %v does not name caller config 0", f.Bench, f.Err)
		}
	}
}

// panicOnUpdate is a predictor that panics on its first Update.
type panicOnUpdate struct{}

func (*panicOnUpdate) Predict(uint32) (uint32, bool) { return 0, false }
func (*panicOnUpdate) Update(uint32, uint32)         { panic("lane blew up") }
func (*panicOnUpdate) Name() string                  { return "panic-on-update" }

// TestSweepSpecsShadowMatchesSolo checks the capacity-attribution path: a
// batched spec with an unbounded shadow twin must report the same miss and
// capacity rates as the same spec swept alone.
func TestSweepSpecsShadowMatchesSolo(t *testing.T) {
	ctx := tinyContext(t)
	cfg := boundedConfig(2, 0, "fullassoc", 64)
	shadowCfg := cfg
	shadowCfg.TableKind = "unbounded"
	shadowCfg.Entries = 0
	spec := SweepSpec{
		Mk:       func() (core.Predictor, error) { return core.NewTwoLevel(cfg) },
		MkShadow: func() (core.Predictor, error) { return core.NewTwoLevel(shadowCfg) },
	}
	// Two copies of the same spec in one batch: both lanes must agree with
	// each other (no cross-lane contamination) and with a solo run.
	batch, err := ctx.SweepSpecs([]SweepSpec{spec, spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := ctx.SweepSpecs([]SweepSpec{spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	key := func(r sim.Result) [4]int {
		return [4]int{r.Executed, r.Misses, r.NoPrediction, r.CapacityMisses}
	}
	for _, bench := range []string{"idl", "gcc"} {
		a, b, s := batch[0][bench], batch[1][bench], solo[0][bench]
		if key(a) != key(b) {
			t.Errorf("%s: lane results differ: %+v vs %+v", bench, a, b)
		}
		if key(a) != key(s) {
			t.Errorf("%s: batched %+v != solo %+v", bench, a, s)
		}
		if a.CapacityRate() < 0 || a.CapacityRate() > a.MissRate() {
			t.Errorf("%s: capacity rate %v outside [0, miss %v]",
				bench, a.CapacityRate(), a.MissRate())
		}
	}
}

// TestSweepSpecsRejectsInlineShadow pins the API contract: shadows must come
// from MkShadow so each lane × benchmark cell gets a private instance.
func TestSweepSpecsRejectsInlineShadow(t *testing.T) {
	ctx := tinyContext(t)
	sh, err := core.NewTwoLevel(core.Config{TableKind: "unbounded"})
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Mk:   func() (core.Predictor, error) { return core.NewTwoLevel(exactConfig(1)) },
		Opts: sim.Options{Shadow: sh},
	}
	if _, err := ctx.SweepSpecs([]SweepSpec{spec}, false); err == nil {
		t.Fatal("inline Opts.Shadow accepted")
	}
}
