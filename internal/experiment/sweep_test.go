package experiment

import (
	"slices"
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

// sweepGrid is a configuration grid wide enough to span several sweep cells,
// mixing table kinds so lanes are genuinely heterogeneous.
func sweepGrid() []core.Config {
	var cfgs []core.Config
	kinds := []string{"tagless", "assoc2", "fullassoc"}
	for p := 0; p <= 5; p++ {
		for _, kind := range kinds {
			cfgs = append(cfgs, boundedConfig(p, 0, kind, 256))
		}
	}
	return cfgs // 18 tables > cellTables
}

// TestSweepBatchMatchesSequential is the golden guarantee behind every
// batched experiment: running a grid of configurations through SweepConfigs
// (cells of lanes, shared trace passes, predictor reuse via Reset) must give
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

	// Run order [2 0 1] (tables in spec order, then the Mk lane) with the
	// last run lane (caller index 1) dying.
	dies := func() (core.Predictor, error) { return &panicOnUpdate{}, nil }
	specs := []SweepSpec{tableSpec(cfgs[2]), {Mk: dies}, tableSpec(cfgs[5])}
	if got := planCells(specs); len(got) != 1 || !slices.Equal(got[0], []int{2, 0, 1}) {
		t.Fatalf("planCells = %v, want [[2 0 1]]", got)
	}
	res, err := ctx.SweepSpecs(specs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0]) != len(ctx.Suite) || len(res[1]) != 0 || len(res[2]) != len(ctx.Suite) {
		t.Errorf("results by caller index hold %d, %d, %d benchmarks; want %d, 0, %d",
			len(res[0]), len(res[1]), len(res[2]), len(ctx.Suite), len(ctx.Suite))
	}
	fails := ctx.TakeFailures()
	if len(fails) != len(ctx.Suite) {
		t.Fatalf("%d degraded cells, want %d", len(fails), len(ctx.Suite))
	}
	for _, f := range fails {
		if !strings.HasPrefix(f.Err.Error(), "config 1:") {
			t.Errorf("%s: %v does not name caller config 1", f.Bench, f.Err)
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
	spec := SweepSpec{Tables: []core.Config{cfg}, Shadow: &shadowCfg}
	// Two copies of the same spec in one batch read one table and one
	// shadow: both lanes must agree with each other (the shared tables
	// step once per branch) and with a solo run.
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
// from SweepSpec.Shadow, so each cell builds its own instance.
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

// cellTableCount is how many tables a planned cell builds: one per distinct
// configuration its keyed lanes read, and the private ones of the rest.
func cellTableCount(specs []SweepSpec, cell []int) int {
	shared := make(map[core.Config]bool)
	n := 0
	for _, i := range cell {
		n += specs[i].private()
		if specs[i].keyed() {
			for _, cfg := range specs[i].tables() {
				shared[cfg.Defaults()] = true
			}
		}
	}
	return n + len(shared)
}

// TestPlanCells pins how a sweep is cut into cells: a fig17 matrix's 91
// lanes read 26 distinct tables and build each once; a sharing group larger
// than a cell is cut so no cell exceeds cellTables; lanes that take
// Kernel.Run share nothing; and lanes built by Mk run last, in the caller's
// order.
func TestPlanCells(t *testing.T) {
	var fig17 []SweepSpec
	for p1 := 0; p1 <= 12; p1++ {
		for p2 := 0; p2 <= p1; p2++ {
			if p1 == p2 {
				fig17 = append(fig17, tableSpec(boundedConfig(p1, bits.Reverse, "assoc4", 4096)))
			} else {
				fig17 = append(fig17, dualPath(p1, p2, "assoc4", 2048))
			}
		}
	}
	var chain []SweepSpec // hybrids (p, p+1) link 20 tables into one group
	for p := 0; p < 19; p++ {
		chain = append(chain, dualPath(p, p+1, "tagless", 64))
	}
	private := []SweepSpec{tableSpec(boundedConfig(2, bits.Reverse, "assoc2", 256)),
		tableSpec(boundedConfig(2, bits.Reverse, "assoc2", 256))}
	for i := range private {
		private[i].Opts.Sites = true
	}
	mk := func() (core.Predictor, error) { return core.NewBTB(nil, core.UpdateTwoMiss), nil }
	mixed := []SweepSpec{{Mk: mk}, tableSpec(boundedConfig(3, bits.Reverse, "tagless", 64)), {Mk: mk}}

	for _, tc := range []struct {
		name   string
		specs  []SweepSpec
		tables int // built over all cells
	}{
		{"fig17", fig17, 26},
		{"chain", chain, 20},
		{"private", private, 2},
		{"mixed", mixed, 3},
	} {
		cells := planCells(tc.specs)
		var seen []int
		tables := 0
		for _, cell := range cells {
			n := cellTableCount(tc.specs, cell)
			if n > cellTables {
				t.Errorf("%s: cell %v builds %d tables, more than %d", tc.name, cell, n, cellTables)
			}
			tables += n
			seen = append(seen, cell...)
		}
		slices.Sort(seen)
		if len(seen) != len(tc.specs) || slices.Compact(seen)[len(seen)-1] != len(tc.specs)-1 {
			t.Errorf("%s: cells %v do not cover each lane once", tc.name, cells)
		}
		switch {
		case tc.name == "chain" && tables <= tc.tables:
			t.Errorf("chain: %d tables over %d cells; a 20-table group must be cut", tables, len(cells))
		case tc.name != "chain" && tables != tc.tables:
			t.Errorf("%s: cells %v build %d tables, want %d", tc.name, cells, tables, tc.tables)
		}
	}
	if got := planCells(mixed); !slices.Equal(got[len(got)-1][1:], []int{0, 2}) {
		t.Errorf("mixed: cells %v, want the Mk lanes 0 and 2 last", got)
	}
}

// TestSharedTablesKeepBranchCounts pins the work a sweep reports: sharing
// tables leaves every lane's counted branches alone, so fig11 and fig17
// still execute lanes × indirect branches, summed over the suite.
func TestSharedTablesKeepBranchCounts(t *testing.T) {
	ctx := tinyContext(t)
	var branches uint64
	for _, cfg := range ctx.Suite {
		for _, r := range ctx.Trace(cfg) {
			if r.Kind.Indirect() {
				branches++
			}
		}
	}
	for _, e := range []struct {
		id    string
		lanes uint64
	}{{"fig11", 9 * 11}, {"fig17", 2 * 91}} {
		exp, err := ByID(e.id)
		if err != nil {
			t.Fatal(err)
		}
		before := ctx.Progress().Executed
		if _, err := exp.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if got, want := ctx.Progress().Executed-before, e.lanes*branches; got != want {
			t.Errorf("%s executed %d branches, want %d lanes × %d", e.id, got, e.lanes, branches)
		}
	}
}
