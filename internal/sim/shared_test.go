package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// sharedGrid is a grid of lanes over a pool of table configurations that the
// lanes repeat, the shape of a sweep cell: each lane reads one table (a
// TwoLevel) or several (a Hybrid, in vote order), and maybe a shadow table,
// by index into cfgs.
type sharedGrid struct {
	cfgs []core.Config
	// pretrain marks the configurations whose tables run through the
	// pretrain trace first, so they start from a different history than
	// their spec twins.
	pretrain []bool
	lanes    []sharedLane
}

type sharedLane struct {
	tables []int
	shadow int // -1 for none
	// opts carries the warmup, and per-site stats for a lane that must
	// take Kernel.Run; such a lane builds private tables.
	opts Options
}

func (l sharedLane) reads(i int) bool { return l.shadow == i || slices.Contains(l.tables, i) }

// table returns a fresh table of configuration i, pretrained as the grid
// says.
func (g sharedGrid) table(i int, pre trace.Trace) *core.TwoLevel {
	t := core.MustTwoLevel(g.cfgs[i])
	if g.pretrain[i] {
		for _, r := range pre {
			if r.Kind.Indirect() {
				t.Predict(r.PC)
				t.Update(r.PC, r.Target)
			}
		}
	}
	return t
}

// lane builds lane l's predictor and options, taking each table from table.
func (g sharedGrid) lane(l int, table func(i int) core.Component) (core.Predictor, Options) {
	ln := g.lanes[l]
	comps := make([]core.Component, len(ln.tables))
	for k, i := range ln.tables {
		comps[k] = table(i)
	}
	var p core.Predictor = comps[0]
	if len(comps) > 1 {
		p = core.MustHybrid(comps...)
	}
	opts := ln.opts
	if ln.shadow >= 0 {
		opts.Shadow = table(ln.shadow)
	}
	return p, opts
}

// subject builds the grid as a sweep cell does: one table per
// configuration, made by mk and handed to every keyed lane that reads it,
// and private tables for the lanes that take Kernel.Run. shared holds the
// shared tables by configuration.
func (g sharedGrid) subject(pre trace.Trace, mk func(i int) core.Component) (ps []core.Predictor, opts []Options, shared []core.Component) {
	shared = make([]core.Component, len(g.cfgs))
	ps, opts = make([]core.Predictor, len(g.lanes)), make([]Options, len(g.lanes))
	for l, ln := range g.lanes {
		table := func(i int) core.Component {
			if shared[i] == nil {
				shared[i] = mk(i)
			}
			return shared[i]
		}
		if !ln.opts.Keyable() {
			table = func(i int) core.Component { return g.table(i, pre) }
		}
		ps[l], opts[l] = g.lane(l, table)
	}
	return ps, opts, shared
}

// reference builds every lane alone, each table a private instance. first
// holds the first reference instance of each configuration: every instance
// of one configuration trains on the same branches, so any of them is what
// the shared table must match.
func (g sharedGrid) reference(pre trace.Trace) (ps []core.Predictor, opts []Options, first []core.Component) {
	first = make([]core.Component, len(g.cfgs))
	ps, opts = make([]core.Predictor, len(g.lanes)), make([]Options, len(g.lanes))
	for l := range g.lanes {
		ps[l], opts[l] = g.lane(l, func(i int) core.Component {
			t := g.table(i, pre)
			if first[i] == nil {
				first[i] = t
			}
			return t
		})
	}
	return ps, opts, first
}

// sharedSpecs draws the first levels of a grid's configurations: a few
// specs per call, so configurations share key tapes as well as tables.
func sharedSpecs(rng *rand.Rand) []keyedSpec {
	schemes := []bits.Scheme{bits.Concat, bits.Straight, bits.Reverse, bits.PingPong}
	ops := []history.KeyOp{history.OpXor, history.OpConcat}
	specs := make([]keyedSpec, 2+rng.IntN(5))
	for k := range specs {
		s := keyedSpec{p: rng.IntN(13), start: 2 + rng.IntN(8), scheme: schemes[rng.IntN(4)], op: ops[rng.IntN(2)]}
		if s.p > 0 {
			s.b = 1 + rng.IntN(min(24, 32/s.p))
		}
		specs[k] = s
	}
	return specs
}

// sharedConfigs draws n table configurations over every table kind, both
// update rules and confidence widths 1-3, a fifth of them pretrained.
func sharedConfigs(rng *rand.Rand, n int) ([]core.Config, []bool) {
	kinds := []string{"tagless", "assoc1", "assoc2", "assoc4", "fullassoc", "unbounded"}
	rules := []core.UpdateRule{core.UpdateTwoMiss, core.UpdateAlways}
	specs := sharedSpecs(rng)
	cfgs, pretrain := make([]core.Config, n), make([]bool, n)
	for i := range cfgs {
		cfgs[i] = specs[rng.IntN(len(specs))].config(kinds[rng.IntN(len(kinds))], 16<<rng.IntN(6), rules[rng.IntN(2)], 1+rng.IntN(3))
		pretrain[i] = rng.IntN(5) == 0
	}
	return cfgs, pretrain
}

// gridLane draws one lane's tables from next, a source of configuration
// indices: form%5 picks a plain table, a 2- or 3-table hybrid, or a plain
// table or 2-table hybrid with a shadow. A lane's tables are distinct, as a
// sweep spec's must be; its shadow may repeat one of them.
func gridLane(form, n int, next func() int) sharedLane {
	size := []int{1, 2, 3, 1, 2}[form%5]
	ln := sharedLane{shadow: -1}
	for len(ln.tables) < min(size, n) {
		i := next() % n
		for slices.Contains(ln.tables, i) {
			i = (i + 1) % n
		}
		ln.tables = append(ln.tables, i)
	}
	if form%5 >= 3 {
		ln.shadow = next() % n
	}
	return ln
}

// randomGrid draws a grid of 20-40 lanes over 4-15 configurations, with
// warmups, plus two lanes that take Kernel.Run beside the shared tables.
func randomGrid(rng *rand.Rand) sharedGrid {
	var g sharedGrid
	g.cfgs, g.pretrain = sharedConfigs(rng, 4+rng.IntN(12))
	warmups := []int{0, 0, 37, 900}
	for l := 20 + rng.IntN(21); l > 0; l-- {
		ln := gridLane(rng.IntN(5), len(g.cfgs), func() int { return rng.IntN(len(g.cfgs)) })
		ln.opts.Warmup = warmups[rng.IntN(len(warmups))]
		g.lanes = append(g.lanes, ln)
	}
	for k := 0; k < 2; k++ {
		ln := gridLane(k, len(g.cfgs), func() int { return rng.IntN(len(g.cfgs)) })
		ln.opts.Sites = true
		g.lanes = append(g.lanes, ln)
	}
	return g
}

// checkSharedGrid runs the grid split at cut across two calls and checks
// every lane's Results against its predictor alone through Kernel.Run, then
// continues every shared table, and every Kernel.Run lane's predictor,
// through Predict/Update against its reference.
func checkSharedGrid(t *testing.T, g sharedGrid, full trace.Trace, cut int, pre trace.Trace, tel bool) {
	t.Helper()
	ps, opts, shared := g.subject(pre, func(i int) core.Component { return g.table(i, pre) })
	refs, refOpts, first := g.reference(pre)
	for call, recs := range []trace.Trace{full[:cut], full[cut:]} {
		got, err := RunBatchEach(context.Background(), ps, recs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for l := range g.lanes {
			if want := refRun(refs[l], refOpts[l], recs, tel); !reflect.DeepEqual(got[l], want) {
				t.Errorf("call %d, lane %d %+v: shared %+v, Kernel.Run %+v", call, l, g.lanes[l], got[l], want)
			}
		}
	}
	cont := workload.Suite()[2].MustGenerate(500)
	for i, tab := range shared {
		if tab == nil {
			continue
		}
		if a, b := tableStats(tab), tableStats(first[i]); !reflect.DeepEqual(a, b) {
			t.Errorf("table %d (%s): stats %+v, want %+v", i, g.cfgs[i].Name(), a, b)
		}
		if at := continueBoth(tab, first[i], cont); at >= 0 {
			t.Errorf("table %d (%s): Predict after the batched calls differs at record %d", i, g.cfgs[i].Name(), at)
		}
	}
	for l, ln := range g.lanes {
		if !ln.opts.Keyable() {
			if at := continueBoth(ps[l], refs[l], cont); at >= 0 {
				t.Errorf("Kernel.Run lane %d: Predict after the batched calls differs at record %d", l, at)
			}
		}
	}
}

// TestSharedTablesMatchKernel is the shared-table engine's equivalence
// guarantee: random grids whose lanes repeat table configurations — plain
// tables, 2- and 3-table hybrids and shadows over every table kind, p 0-12,
// both key operations and both update rules — step each shared table once
// per branch and give every lane the Results of its predictor built alone
// and run through Kernel.Run, split across two calls. Every shared table
// then continues through Predict/Update. The suite's CI check requires it
// to pass, so it must never t.Skip.
func TestSharedTablesMatchKernel(t *testing.T) {
	suite := workload.Suite()
	pre := suite[9].MustGenerate(300)
	for _, tel := range []bool{false, true} {
		for bi, cfg := range []workload.Config{suite[1], suite[6], suite[12]} {
			t.Run(fmt.Sprintf("%s/telemetry=%v", cfg.Name, tel), func(t *testing.T) {
				if tel {
					telemetry.Enable(telemetry.New())
					defer telemetry.Disable()
				}
				full := cfg.MustGenerate(6000)
				cut := len(full)*2/5 + 11
				if cut <= blockSize || len(full)-cut <= 2*blockSize {
					t.Fatalf("trace of %d records too short to span blocks on both sides of %d", len(full), cut)
				}
				rng := rand.New(rand.NewPCG(uint64(bi), 25))
				for k := 0; k < 3; k++ {
					g := randomGrid(rng)
					reads := make([]int, len(g.cfgs))
					for _, ln := range g.lanes {
						if ln.opts.Keyable() {
							for i := range g.cfgs {
								if ln.reads(i) {
									reads[i]++
								}
							}
						}
					}
					if slices.Max(reads) < 3 {
						t.Fatalf("grid %d: no table has three readers (%v)", k, reads)
					}
					checkSharedGrid(t, g, full, cut, pre, tel)
				}
			})
		}
	}

	t.Run("panicking shared table fails exactly its readers", func(t *testing.T) {
		full := suite[3].MustGenerate(3000)
		rng := rand.New(rand.NewPCG(3, 25))
		g := randomGrid(rng)
		// The victim is the table with the most keyed readers.
		readers := func(i int) []int {
			var out []int
			for l, ln := range g.lanes {
				if ln.opts.Keyable() && ln.reads(i) {
					out = append(out, l)
				}
			}
			return out
		}
		victim := 0
		for i := range g.cfgs {
			if len(readers(i)) > len(readers(victim)) {
				victim = i
			}
		}
		want := readers(victim)
		if len(want) < 2 || len(want) == len(g.lanes) {
			t.Fatalf("victim %d has readers %v of %d lanes", victim, want, len(g.lanes))
		}
		ps, opts, _ := g.subject(nil, func(i int) core.Component {
			if i == victim {
				return &panicKeyed{TwoLevel: g.table(i, nil), n: 700}
			}
			return g.table(i, nil)
		})
		rs, err := RunBatchEach(context.Background(), ps, full, opts)
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want a BatchError", err)
		}
		var dead []int
		for _, le := range be.Lanes {
			dead = append(dead, le.Lane)
			var pe *PanicError
			if !errors.As(le.Err, &pe) || pe.Val != "keyed lane blew up" {
				t.Errorf("lane %d: %v, want the table's panic", le.Lane, le.Err)
			}
		}
		if !slices.Equal(dead, want) {
			t.Fatalf("dead lanes %v, want the victim's readers %v", dead, want)
		}
		refs, refOpts, _ := g.reference(nil)
		for l := range g.lanes {
			if slices.Contains(want, l) {
				continue
			}
			if ref := refRun(refs[l], refOpts[l], full, false); !reflect.DeepEqual(rs[l], ref) {
				t.Errorf("lane %d beside the dead ones: %+v, want %+v", l, rs[l], ref)
			}
		}
	})
}

// FuzzSharedTables is TestSharedTablesMatchKernel over fuzzed grids: the
// number of configurations and lanes, the pattern of configurations the
// lanes repeat (two bytes per table: a lane's form, then its indices), the
// seed of the configurations and of the trace, and the split point.
func FuzzSharedTables(f *testing.F) {
	f.Add(uint8(6), uint8(24), []byte{0, 1, 2, 1, 3, 4, 5, 2, 1, 4, 3, 0, 2}, uint64(1), uint16(9000))
	f.Add(uint8(3), uint8(9), []byte{4, 0, 1, 2}, uint64(7), uint16(1))
	f.Add(uint8(12), uint8(40), []byte{2, 9, 3, 11, 7, 1, 1, 1}, uint64(42), uint16(30000))
	suite := workload.Suite()
	pre := suite[9].MustGenerate(300)
	f.Fuzz(func(t *testing.T, nCfgs, nLanes uint8, pattern []byte, seed uint64, split uint16) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		rng := rand.New(rand.NewPCG(seed, 25))
		var g sharedGrid
		g.cfgs, g.pretrain = sharedConfigs(rng, 1+int(nCfgs)%16)
		k := 0
		next := func() int {
			b := pattern[k%len(pattern)]
			k++
			return int(b)
		}
		for l := 1 + int(nLanes)%32; l > 0; l-- {
			form := next()
			g.lanes = append(g.lanes, gridLane(form, len(g.cfgs), next))
			g.lanes[len(g.lanes)-1].opts.Warmup = form / 5 * 7
		}
		bench := suite[seed%uint64(len(suite))]
		bench.Seed = seed
		full := bench.MustGenerate(1000)
		cut := int(split) % (len(full) + 1)
		checkSharedGrid(t, g, full, cut, pre, false)
	})
}

// TestSharedTablesZeroAllocsPerRecord pins that shared tables allocate per
// call, never per record or per block: re-running a sweep cell of hybrids,
// plain lanes and shadows over reset shared tables allocates the same for a
// 2k-record trace as for a 20k-record one, which spans three blocks.
func TestSharedTablesZeroAllocsPerRecord(t *testing.T) {
	mk := func() ([]core.Predictor, []Options, []core.Resetter) {
		var tabs, shadows []*core.TwoLevel
		var resets []core.Resetter
		for p := 0; p < 6; p++ {
			tabs = append(tabs, core.MustTwoLevel(core.DualPathConfig(p, "assoc4", 256)))
			shadows = append(shadows, core.MustTwoLevel(core.Config{PathLength: p, Precision: core.AutoPrecision,
				Scheme: bits.Reverse, TableKind: "unbounded"}))
			resets = append(resets, tabs[p], shadows[p])
		}
		var ps []core.Predictor
		var opts []Options
		for a := range tabs {
			ps = append(ps, tabs[a])
			opts = append(opts, Options{Warmup: 10, Shadow: shadows[a]})
			for b := range a {
				ps = append(ps, core.MustHybrid(tabs[a], tabs[b]))
				opts = append(opts, Options{})
			}
		}
		return ps, opts, resets
	}
	// The longer trace's tapes are larger (a block, not 2k branches), so GC
	// cycles come at a different rate, and the runtime's own allocations
	// during a cycle would read as the cell's. Collect only between runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := cycleTrace(0x1000, []uint32{0x2000, 0x2040, 0x2080, 0x20c0, 0x2100}, 4000)
	allocs := map[int]float64{}
	for _, n := range []int{2000, 20000} {
		tr := src[:n]
		ps, opts, resets := mk()
		for _, p := range ps {
			if _, ok := keyedTables(p); !ok {
				t.Fatalf("%s is not keyed", p.Name())
			}
		}
		cell := func() {
			for _, r := range resets {
				r.Reset()
			}
			if _, err := RunBatchEach(context.Background(), ps, tr, opts); err != nil {
				t.Fatal(err)
			}
		}
		cell() // grow the tables once
		runtime.GC()
		allocs[n] = testing.AllocsPerRun(5, cell)
	}
	if allocs[2000] != allocs[20000] {
		t.Errorf("a cell over reset shared tables allocates %v times for 2k records, %v for 20k", allocs[2000], allocs[20000])
	}
}
