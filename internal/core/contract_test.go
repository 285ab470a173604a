package core_test

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/core"
)

// contractCase is one predictor configuration, built twice per run.
type contractCase struct {
	name string
	mk   func() (core.Predictor, error)
}

// flagCase is the predictor the flags describe, as PredictorFlags.Build
// makes it for every tool.
func flagCase(f cli.PredictorFlags) contractCase {
	return contractCase{
		name: fmt.Sprintf("%s p=%d s=%d b=%d %s/%d %s %s %s hybrid=%q", f.Pred, f.Path, f.HistShare, f.Precision, f.Table, f.Entries, f.Scheme, f.KeyOp, f.Update, f.Hybrid),
		mk:   f.Build,
	}
}

// contractCases covers every family PredictorFlags.Build makes — the
// two-level predictor over every table kind with exact and compressed keys
// at p 0–12, dual-path hybrids, BTBs, the target cache, the cascade, the
// shared-table hybrid and ITTAGE — plus both §3.3 variations, the BPST
// hybrid, mixed-component hybrids and the run-ahead predictor, which only
// the core constructors build.
func contractCases() []contractCase {
	var base cli.PredictorFlags
	base.Register(flag.NewFlagSet("contract", flag.PanicOnError))
	schemes := []string{"concat", "straight", "reverse", "pingpong"}
	kinds := []string{"exact", "unbounded", "tagless", "assoc1", "assoc2", "assoc4", "fullassoc"}
	entries := func(kind string) int {
		if kind == "exact" || kind == "unbounded" {
			return 0
		}
		return 64 // small enough to evict
	}
	var cs []contractCase
	for i, kind := range kinds {
		for p := 0; p <= 12; p++ {
			f := base
			f.Path, f.Table, f.Entries = p, kind, entries(kind)
			f.Scheme = schemes[(p+i)%len(schemes)]
			if p%2 == 1 {
				f.KeyOp = "concat"
			}
			if p%3 == 2 {
				f.Update = "always"
			}
			if p%4 == 3 {
				f.HistShare = 4 + p // per-address histories
			}
			if kind == "exact" && p%2 == 0 {
				f.Precision = 0 // full precision; odd p truncates each target
			}
			cs = append(cs, flagCase(f))
		}
	}
	pairs := []string{"3,1", "0,6", "2,12"}
	for i, kind := range kinds {
		f := base
		f.Table, f.Entries = kind, entries(kind)
		f.Hybrid = pairs[i%len(pairs)]
		for _, pred := range []string{"2lev", "ppm", "shared"} {
			if pred == "shared" && kind == "exact" {
				continue // the shared table is a table.Bounded
			}
			f.Pred = pred
			cs = append(cs, flagCase(f))
		}
		for _, pred := range []string{"btb", "btb-2bc", "tcache"} {
			f.Pred, f.Hybrid = pred, ""
			if kind == "exact" {
				f.Table = "unbounded"
			}
			cs = append(cs, flagCase(f))
		}
	}
	for _, pred := range []string{"ittage", "ittage:4,64,1", "ittage:2,16,3", "ittage:16,16,1"} {
		f := base
		f.Pred = pred
		cs = append(cs, flagCase(f))
	}
	for i, kind := range kinds {
		for _, v := range []struct{ cond, addr bool }{{true, false}, {false, true}, {true, true}} {
			cfg := core.Config{
				PathLength: 1 + 2*i, Precision: core.AutoPrecision, TableKind: kind, Entries: entries(kind),
				Scheme: 2, IncludeCond: v.cond, IncludeAddress: v.addr,
			}
			if kind == "exact" {
				cfg.Precision = 0
			}
			cs = append(cs, contractCase{
				name: fmt.Sprintf("2lev %s cond=%v addr=%v", kind, v.cond, v.addr),
				mk:   func() (core.Predictor, error) { return core.NewTwoLevel(cfg) },
			})
		}
	}
	twoLevel := func(p int, kind string) *core.TwoLevel {
		return core.MustTwoLevel(core.DualPathConfig(p, kind, entries(kind)))
	}
	cs = append(cs,
		contractCase{"bpst", func() (core.Predictor, error) {
			return core.NewBPSTHybrid(twoLevel(1, "assoc2"), twoLevel(4, "assoc2"), 16)
		}},
		contractCase{"bpst btb+2lev", func() (core.Predictor, error) {
			return core.NewBPSTHybrid(core.NewBTB(nil, core.UpdateAlways), twoLevel(3, "tagless"), 64)
		}},
		contractCase{"hybrid btb+2lev", func() (core.Predictor, error) {
			return core.NewHybrid(core.NewBTB(nil, core.UpdateTwoMiss), twoLevel(2, "fullassoc"))
		}},
		contractCase{"hybrid 3 components", func() (core.Predictor, error) {
			return core.NewHybrid(twoLevel(1, "assoc4"), twoLevel(4, "exact"), twoLevel(8, "assoc2"))
		}},
		contractCase{"nextbranch", func() (core.Predictor, error) { return core.NewNextBranch(2, "assoc2", 64) }},
		contractCase{"nextbranch fullassoc", func() (core.Predictor, error) { return core.NewNextBranch(5, "fullassoc", 32) }},
	)
	return cs
}

// checkContract drives twins A and B of c over n records drawn from seed,
// resetting both halfway. B calls Predict before every Update; A's Update
// must return exactly what B's Predict did, and the twins must agree after
// every branch on their Update results and (with attrib) on Attribution,
// and at the end on TableStats.
func checkContract(t *testing.T, c contractCase, seed uint64, n int, attrib bool) {
	t.Helper()
	build := func() core.Predictor {
		p, err := c.mk()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return p
	}
	a, b := build(), build()
	var attA, attB core.Attributor
	if attrib {
		var ok bool
		if attA, ok = a.(core.Attributor); !ok {
			return
		}
		attB = b.(core.Attributor)
		attA.SetAttribution(true)
		attB.SetAttribution(true)
	}
	var condA, condB core.CondObserver
	if o, ok := a.(core.CondObserver); ok && o.ReadsCond() {
		condA, condB = o, b.(core.CondObserver)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xC0417AC7))
	// Few sites with few targets each, so entries both hit and miss; sites
	// spread over address bits 2..14, so per-address histories split them.
	sites := 1 + rng.IntN(10)
	fanout := 1 + rng.IntN(5)
	for i := range n {
		if i == n/2 {
			if r, ok := a.(core.Resetter); ok {
				r.Reset()
				b.(core.Resetter).Reset()
			}
		}
		pc := 0x10000 + uint32(rng.IntN(sites))<<(2+rng.IntN(4)*4)
		if rng.IntN(3) == 0 {
			var target uint32
			if rng.IntN(2) == 0 {
				target = 0x60000 + uint32(rng.IntN(4))<<4
			}
			if condA != nil {
				condA.ObserveCond(pc, target, target != 0)
				condB.ObserveCond(pc, target, target != 0)
			}
			continue
		}
		target := 0x40000 + uint32(rng.IntN(fanout))<<uint(2+rng.IntN(12))
		want, wantOK := b.Predict(pc)
		got, gotOK := a.Update(pc, target)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s attrib=%v seed %d, record %d (pc %#x): Update returned (%#x, %v), Predict before it (%#x, %v)",
				c.name, attrib, seed, i, pc, got, gotOK, want, wantOK)
		}
		if bt, bok := b.Update(pc, target); bt != got || bok != gotOK {
			t.Fatalf("%s attrib=%v seed %d, record %d: twins' Update returned (%#x, %v) and (%#x, %v)",
				c.name, attrib, seed, i, got, gotOK, bt, bok)
		}
		if attrib {
			if x, y := attA.Attribution(), attB.Attribution(); x != y {
				t.Fatalf("%s seed %d, record %d: twins' attribution %+v and %+v", c.name, seed, i, x, y)
			}
		}
	}
	if ts, ok := a.(core.TableStatser); ok {
		if x, y := ts.TableStats(), b.(core.TableStatser).TableStats(); !slices.Equal(x, y) {
			t.Fatalf("%s attrib=%v seed %d: twins' table stats %+v and %+v", c.name, attrib, seed, x, y)
		}
	}
}

// TestUpdateReturnsPrediction pins the one-call contract: Update returns
// the prediction Predict makes under the pre-branch history, then trains,
// and a Predict before it changes nothing a later prediction, attribution
// or table counter can see.
func TestUpdateReturnsPrediction(t *testing.T) {
	for i, c := range contractCases() {
		for _, attrib := range []bool{false, true} {
			checkContract(t, c, uint64(i+1), 1200, attrib)
		}
	}
}

// FuzzUpdateReturnsPrediction drives the contract check with fuzzed
// streams over every case of TestUpdateReturnsPrediction.
func FuzzUpdateReturnsPrediction(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(500), false)
	f.Add(uint64(7), uint16(95), uint16(1500), true)
	f.Add(uint64(9), uint16(140), uint16(900), true)
	cases := contractCases()
	f.Fuzz(func(t *testing.T, seed uint64, which, n uint16, attrib bool) {
		checkContract(t, cases[int(which)%len(cases)], seed, int(n%3000), attrib)
	})
}
