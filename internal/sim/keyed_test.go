package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// keyedRecipe builds one lane of the keyed differential test. Every build
// returns fresh instances, so the subject (run by RunBatchEach) and its
// reference (run by Kernel.Run) start from identical state.
type keyedRecipe struct {
	name     string
	mk       func() core.Predictor
	mkShadow func() core.Predictor // nil: no shadow
	opts     Options               // Shadow is filled from mkShadow
	// pretrain runs through Predict/Update before the batched calls, so
	// the lane starts from a different history than its spec twins.
	pretrain trace.Trace
}

// build returns the recipe's predictor and options, pretrained.
func (r keyedRecipe) build() (core.Predictor, Options) {
	p, opts := r.mk(), r.opts
	if r.mkShadow != nil {
		opts.Shadow = r.mkShadow()
	}
	for _, rec := range r.pretrain {
		if rec.Kind.Indirect() {
			p.Predict(rec.PC)
			p.Update(rec.PC, rec.Target)
		}
	}
	return p, opts
}

// keyedSpec is one first level of the random lanes: a history spec, as
// config fields.
type keyedSpec struct {
	p, b, start int
	scheme      bits.Scheme
	op          history.KeyOp
}

func (s keyedSpec) config(kind string, entries int, rule core.UpdateRule, confBits int) core.Config {
	if kind == "unbounded" {
		entries = 0
	}
	return core.Config{PathLength: s.p, Precision: s.b, StartBit: s.start, Scheme: s.scheme,
		KeyOp: s.op, TableKind: kind, Entries: entries, Update: rule, ConfBits: confBits}
}

// keyedRecipes draws keyed-eligible lanes covering every table kind, path
// lengths 0-12, all four schemes, both key operations and both update
// rules: single tables, 2- and 3-component hybrids, warmups, shadows with
// the subject's spec and with another, and spec twins that start from
// different histories. A few lanes that must take Kernel.Run ride along.
func keyedRecipes(rng *rand.Rand, pretrain trace.Trace) []keyedRecipe {
	kinds := []string{"tagless", "assoc1", "assoc2", "assoc4", "fullassoc", "unbounded"}
	schemes := []bits.Scheme{bits.Concat, bits.Straight, bits.Reverse, bits.PingPong}
	ops := []history.KeyOp{history.OpXor, history.OpConcat}
	rules := []core.UpdateRule{core.UpdateTwoMiss, core.UpdateAlways}
	specs := make([]keyedSpec, 13)
	for p := range specs {
		s := keyedSpec{p: p, start: 2 + rng.IntN(8), scheme: schemes[p%4], op: ops[p/4%2]}
		if p > 0 {
			s.b = 1 + rng.IntN(min(24, 32/p))
		}
		specs[p] = s
	}
	single := func(s keyedSpec, i int) func() core.Predictor {
		cfg := s.config(kinds[i%len(kinds)], 16<<rng.IntN(6), rules[rng.IntN(2)], 1+rng.IntN(3))
		return func() core.Predictor { return core.MustTwoLevel(cfg) }
	}
	hybrid := func(ss ...keyedSpec) func() core.Predictor {
		var cfgs []core.Config
		for _, s := range ss {
			cfgs = append(cfgs, s.config(kinds[rng.IntN(len(kinds))], 16<<rng.IntN(5), rules[rng.IntN(2)], 1+rng.IntN(2)))
		}
		return func() core.Predictor {
			comps := make([]core.Component, len(cfgs))
			for i, cfg := range cfgs {
				comps[i] = core.MustTwoLevel(cfg)
			}
			return core.MustHybrid(comps...)
		}
	}
	warmups := []int{0, 0, 37, 900}
	var out []keyedRecipe
	add := func(name string, r keyedRecipe) {
		r.name = fmt.Sprintf("%d-%s", len(out), name)
		r.opts.Warmup = warmups[rng.IntN(len(warmups))]
		out = append(out, r)
	}
	for i, s := range specs {
		// Two tables per spec share one tape; a third starts from a
		// trained history and needs its own.
		add("table", keyedRecipe{mk: single(s, i)})
		add("twin", keyedRecipe{mk: single(s, i+3)})
		add("pretrained", keyedRecipe{mk: single(s, i+1), pretrain: pretrain})
	}
	for i := 0; i < 8; i++ {
		a, b, c := specs[rng.IntN(13)], specs[rng.IntN(13)], specs[rng.IntN(13)]
		add("hybrid2", keyedRecipe{mk: hybrid(a, b)})
		add("hybrid3", keyedRecipe{mk: hybrid(a, b, c)})
	}
	add("hybrid-pretrained", keyedRecipe{mk: hybrid(specs[3], specs[5]), pretrain: pretrain})
	for i := 0; i < 4; i++ {
		s, o := specs[rng.IntN(13)], specs[rng.IntN(13)]
		add("shadow-same-spec", keyedRecipe{mk: single(s, i), mkShadow: single(s, 5)})
		add("shadow-other-spec", keyedRecipe{mk: single(s, i), mkShadow: single(o, 5)})
	}
	add("hybrid-shadowed", keyedRecipe{mk: hybrid(specs[2], specs[6]), mkShadow: single(specs[2], 5)})
	// Lanes that take Kernel.Run: not keyed, or asking for what only it
	// provides.
	exact := func() core.Predictor { return core.MustTwoLevel(core.Config{PathLength: 3}) }
	add("exact", keyedRecipe{mk: exact})
	add("per-branch-history", keyedRecipe{mk: func() core.Predictor {
		return core.MustTwoLevel(core.Config{PathLength: 3, Precision: core.AutoPrecision, HistShare: 8})
	}})
	add("include-cond", keyedRecipe{mk: func() core.Predictor {
		return core.MustTwoLevel(core.Config{PathLength: 3, Precision: core.AutoPrecision, IncludeCond: true})
	}})
	add("include-address", keyedRecipe{mk: func() core.Predictor {
		return core.MustTwoLevel(core.Config{PathLength: 4, Precision: core.AutoPrecision, IncludeAddress: true})
	}})
	add("exact-shadow", keyedRecipe{mk: single(specs[3], 1), mkShadow: exact})
	add("sites", keyedRecipe{mk: single(specs[3], 2), opts: Options{Sites: true}})
	add("flush", keyedRecipe{mk: single(specs[4], 3), opts: Options{FlushEvery: 777}})
	return out
}

// refRun is the reference for one call: p alone through Kernel.Run, with
// the table snapshot a batched lane attaches when telemetry is on.
func refRun(p core.Predictor, opts Options, recs trace.Trace, tel bool) Result {
	ts, _ := p.(core.TableStatser)
	var base []table.Stats
	if tel && ts != nil {
		base = ts.TableStats()
	}
	k := NewKernel(p, opts)
	k.Run(recs)
	res := k.Result()
	if base != nil {
		res.Tables = ts.TableStats()
		for i := range res.Tables {
			res.Tables[i] = res.Tables[i].Sub(base[i])
		}
	}
	return res
}

// continueBoth drives two predictors through Predict/Update over recs and
// returns the first record index where they disagree, or -1.
func continueBoth(a, b core.Predictor, recs trace.Trace) int {
	for i, r := range recs {
		if !r.Kind.Indirect() {
			continue
		}
		at, aok := a.Predict(r.PC)
		bt, bok := b.Predict(r.PC)
		if at != bt || aok != bok {
			return i
		}
		a.Update(r.PC, r.Target)
		b.Update(r.PC, r.Target)
	}
	return -1
}

func tableStats(p core.Predictor) []table.Stats {
	if ts, ok := p.(core.TableStatser); ok {
		return ts.TableStats()
	}
	return nil
}

// TestKeyedLanesMatchKernel is the keyed engine's equivalence guarantee:
// lanes stepping only their tables over shared key tapes produce the
// Results, table stats and final predictor state of each predictor alone
// through Kernel.Run, the loop the serve sessions run. The run is split
// across two calls, so the second starts from the histories the first wrote
// back, and every predictor then continues through Predict/Update. The
// suite's CI check requires it to pass, so it must never t.Skip.
func TestKeyedLanesMatchKernel(t *testing.T) {
	suite := workload.Suite()
	for _, tel := range []bool{false, true} {
		for bi, cfg := range []workload.Config{suite[0], suite[5]} {
			t.Run(fmt.Sprintf("%s/telemetry=%v", cfg.Name, tel), func(t *testing.T) {
				if tel {
					telemetry.Enable(telemetry.New())
					defer telemetry.Disable()
				}
				full := cfg.MustGenerate(4000) // conditionals included
				cut := len(full)*3/5 + 17
				if cut <= 2*blockSize || len(full)-cut <= blockSize {
					t.Fatalf("trace of %d records too short to span blocks on both sides of %d", len(full), cut)
				}
				rng := rand.New(rand.NewPCG(uint64(bi), 7))
				recipes := keyedRecipes(rng, suite[9].MustGenerate(300))
				ps := make([]core.Predictor, len(recipes))
				opts := make([]Options, len(recipes))
				refs := make([]core.Predictor, len(recipes))
				refOpts := make([]Options, len(recipes))
				for i, r := range recipes {
					ps[i], opts[i] = r.build()
					refs[i], refOpts[i] = r.build()
				}
				keyed := 0
				for i := range ps {
					if kp, ok := ps[i].(core.Keyed); ok {
						if _, ok := kp.Tables(nil); ok {
							keyed++
						}
					}
				}
				if keyed < len(ps)*3/4 {
					t.Fatalf("only %d of %d lanes are keyed", keyed, len(ps))
				}
				for call, recs := range []trace.Trace{full[:cut], full[cut:]} {
					got, err := RunBatchEach(context.Background(), ps, recs, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i, r := range recipes {
						want := refRun(refs[i], refOpts[i], recs, tel)
						if !reflect.DeepEqual(got[i], want) {
							t.Errorf("call %d, lane %s: keyed %+v, Kernel.Run %+v", call, r.name, got[i], want)
						}
					}
				}
				cont := suite[2].MustGenerate(500)
				for i, r := range recipes {
					if at := continueBoth(ps[i], refs[i], cont); at >= 0 {
						t.Errorf("lane %s: Predict after the batched calls differs at record %d", r.name, at)
					}
					if opts[i].Shadow != nil {
						if at := continueBoth(opts[i].Shadow, refOpts[i].Shadow, cont); at >= 0 {
							t.Errorf("lane %s: shadow Predict after the batched calls differs at record %d", r.name, at)
						}
					}
					if a, b := tableStats(ps[i]), tableStats(refs[i]); !reflect.DeepEqual(a, b) {
						t.Errorf("lane %s: table stats %+v, want %+v", r.name, a, b)
					}
				}
			})
		}
	}

	t.Run("panicking lane dies alone", func(t *testing.T) {
		full := suite[1].MustGenerate(1000)
		cfg := core.Config{PathLength: 2, Precision: core.AutoPrecision, Scheme: bits.Reverse,
			TableKind: "assoc2", Entries: 64}
		mk := func() core.Predictor { return core.MustTwoLevel(cfg) }
		// All three lanes share one tape; the middle one dies mid-block.
		ps := []core.Predictor{mk(), &panicKeyed{TwoLevel: core.MustTwoLevel(cfg), n: 300}, mk()}
		rs, err := RunBatchEach(context.Background(), ps, full, make([]Options, len(ps)))
		var be *BatchError
		if !errors.As(err, &be) || len(be.Lanes) != 1 || be.Lanes[0].Lane != 1 {
			t.Fatalf("err = %v, want a BatchError for lane 1 alone", err)
		}
		want := refRun(mk(), Options{}, full, false)
		for _, i := range []int{0, 2} {
			if !reflect.DeepEqual(rs[i], want) {
				t.Errorf("lane %d beside the dead one: %+v, want %+v", i, rs[i], want)
			}
		}
	})

	t.Run("cancelled call writes back the blocks it ran", func(t *testing.T) {
		full := suite[1].MustGenerate(4000)
		if len(full) <= 2*blockSize {
			t.Fatalf("trace of %d records spans fewer than three blocks", len(full))
		}
		cfg := core.Config{PathLength: 4, Precision: core.AutoPrecision, Scheme: bits.Straight,
			TableKind: "tagless", Entries: 128}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The second lane cancels during the first block, so both stop
		// at the first block boundary.
		ps := []core.Predictor{core.MustTwoLevel(cfg), &cancelKeyed{TwoLevel: core.MustTwoLevel(cfg), n: 10, cancel: cancel}}
		rs, err := RunBatchEach(ctx, ps, full, make([]Options, len(ps)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		for i, p := range ps {
			ref := core.MustTwoLevel(cfg)
			if want := refRun(ref, Options{}, full[:blockSize], false); !reflect.DeepEqual(rs[i], want) {
				t.Errorf("lane %d: cancelled %+v, want the first block's %+v", i, rs[i], want)
			}
			if at := continueBoth(p, ref, full[blockSize:]); at >= 0 {
				t.Errorf("lane %d: Predict after the cancelled call differs at record %d", i, at)
			}
		}
	})
}

// cancelKeyed is a keyed TwoLevel that cancels its run in the table step
// that reaches its n-th branch.
type cancelKeyed struct {
	*core.TwoLevel
	n      int
	cancel context.CancelFunc
}

func (p *cancelKeyed) Tables(dst []core.KeyedTable) ([]core.KeyedTable, bool) {
	_, ok := p.KeyHistory()
	return append(dst, p), ok
}

func (p *cancelKeyed) StepKeyed(keys []uint64, targets []uint32, out []core.Answer) {
	if p.n > 0 {
		if p.n -= len(keys); p.n <= 0 {
			p.cancel()
		}
	}
	p.TwoLevel.StepKeyed(keys, targets, out)
}

// panicKeyed is a keyed TwoLevel whose table step panics when it reaches its
// n-th branch.
type panicKeyed struct {
	*core.TwoLevel
	n int
}

func (p *panicKeyed) Tables(dst []core.KeyedTable) ([]core.KeyedTable, bool) {
	_, ok := p.KeyHistory()
	return append(dst, p), ok
}

func (p *panicKeyed) StepKeyed(keys []uint64, targets []uint32, out []core.Answer) {
	if p.n -= len(keys); p.n <= 0 {
		panic("keyed lane blew up")
	}
	p.TwoLevel.StepKeyed(keys, targets, out)
}

func mustDualPath(t *testing.T, p1, p2 int, kind string, entries int) core.Predictor {
	t.Helper()
	h, err := core.NewDualPath(p1, p2, kind, entries)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestKeyedLanesZeroAllocsPerRecord pins that keyed lanes allocate per
// call, never per record or per block: re-running a sweep cell over reset
// keyed lanes allocates the same for a 2k-record trace as for a 20k-record
// one, which spans three blocks.
func TestKeyedLanesZeroAllocsPerRecord(t *testing.T) {
	mk := func() ([]core.Predictor, []Options) {
		var ps []core.Predictor
		var opts []Options
		for p := 0; p < 6; p++ {
			for _, kind := range []string{"tagless", "assoc4", "fullassoc"} {
				ps = append(ps, core.MustTwoLevel(core.Config{PathLength: p, Precision: core.AutoPrecision,
					Scheme: bits.Reverse, TableKind: kind, Entries: 256}))
				opts = append(opts, Options{Warmup: 10})
			}
			ps = append(ps, core.MustTwoLevel(core.Config{PathLength: p, Precision: core.AutoPrecision,
				Scheme: bits.Concat, TableKind: "fullassoc", Entries: 64}))
			opts = append(opts, Options{Shadow: core.MustTwoLevel(core.Config{PathLength: p,
				Precision: core.AutoPrecision, Scheme: bits.Concat})})
		}
		ps = append(ps, mustDualPath(t, 1, 4, "assoc4", 128))
		return ps, append(opts, Options{})
	}
	// The longer trace's tapes are larger (a block, not 2k keys), so GC
	// cycles come at a different rate, and the runtime's own allocations
	// during a cycle would read as the cell's. Collect only between runs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := cycleTrace(0x1000, []uint32{0x2000, 0x2040, 0x2080, 0x20c0, 0x2100}, 4000)
	allocs := map[int]float64{}
	for _, n := range []int{2000, 20000} {
		tr := src[:n]
		ps, opts := mk()
		for _, p := range ps {
			if kp, _ := p.(core.Keyed); kp == nil {
				t.Fatalf("%s is not keyed", p.Name())
			} else if _, ok := kp.Tables(nil); !ok {
				t.Fatalf("%s is not keyed", p.Name())
			}
		}
		cell := func() {
			for i, p := range ps {
				p.(core.Resetter).Reset()
				if opts[i].Shadow != nil {
					opts[i].Shadow.(core.Resetter).Reset()
				}
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
		t.Errorf("a cell over reset keyed lanes allocates %v times for 2k records, %v for 20k", allocs[2000], allocs[20000])
	}
}
