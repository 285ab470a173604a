package core

import (
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/table"
)

// access is one dynamic branch of a synthetic micro-stream.
type access struct {
	pc, target uint32
}

// run drives a predictor over the stream, one Update per branch as the
// simulation kernel does, and returns (misses, total).
func run(p Predictor, stream []access) (int, int) {
	misses := 0
	for _, a := range stream {
		if t, ok := p.Update(a.pc, a.target); !ok || t != a.target {
			misses++
		}
	}
	return misses, len(stream)
}

// repeat builds a stream of n cycles through the given target sequence at a
// single site.
func repeat(pc uint32, targets []uint32, n int) []access {
	out := make([]access, 0, n*len(targets))
	for i := 0; i < n; i++ {
		for _, t := range targets {
			out = append(out, access{pc, t})
		}
	}
	return out
}

func TestApplyTargetTwoMiss(t *testing.T) {
	e := &table.Entry{Target: 100}
	if !applyTarget(e, 100, UpdateTwoMiss) {
		t.Fatal("correct prediction reported as miss")
	}
	if applyTarget(e, 200, UpdateTwoMiss) {
		t.Fatal("wrong prediction reported as hit")
	}
	if e.Target != 100 || e.Hyst == 0 {
		t.Fatalf("first miss must keep target and set hysteresis: %+v", e)
	}
	applyTarget(e, 200, UpdateTwoMiss)
	if e.Target != 200 || e.Hyst != 0 {
		t.Fatalf("second consecutive miss must replace target: %+v", e)
	}
	// A hit in between clears the hysteresis.
	e = &table.Entry{Target: 100}
	applyTarget(e, 200, UpdateTwoMiss)
	applyTarget(e, 100, UpdateTwoMiss)
	applyTarget(e, 200, UpdateTwoMiss)
	if e.Target != 100 {
		t.Fatalf("isolated misses must not replace target: %+v", e)
	}
}

func TestApplyTargetAlways(t *testing.T) {
	e := &table.Entry{Target: 100}
	applyTarget(e, 200, UpdateAlways)
	if e.Target != 200 {
		t.Fatalf("always rule must replace immediately: %+v", e)
	}
}

func TestBumpConf(t *testing.T) {
	e := &table.Entry{}
	max := confMax(2)
	if max != 3 {
		t.Fatalf("confMax(2) = %d", max)
	}
	for i := 0; i < 10; i++ {
		bumpConf(e, true, max)
	}
	if e.Conf != 3 {
		t.Fatalf("Conf saturated at %d, want 3", e.Conf)
	}
	for i := 0; i < 10; i++ {
		bumpConf(e, false, max)
	}
	if e.Conf != 0 {
		t.Fatalf("Conf floored at %d, want 0", e.Conf)
	}
	if confMax(0) != 3 || confMax(1) != 1 || confMax(8) != 255 || confMax(99) != 255 {
		t.Errorf("confMax bounds: %d %d %d %d", confMax(0), confMax(1), confMax(8), confMax(99))
	}
}

func TestUpdateRuleString(t *testing.T) {
	if UpdateTwoMiss.String() != "2bc" || UpdateAlways.String() != "always" {
		t.Error("UpdateRule names")
	}
	if !strings.Contains(UpdateRule(7).String(), "7") {
		t.Error("unknown rule stringer")
	}
}

func TestBTBMonomorphic(t *testing.T) {
	// A monomorphic branch is perfectly predicted after one cold miss.
	for _, rule := range []UpdateRule{UpdateAlways, UpdateTwoMiss} {
		b := NewBTB(nil, rule)
		misses, total := run(b, repeat(0x1000, []uint32{0x2000}, 100))
		if misses != 1 {
			t.Errorf("rule %v: %d/%d misses, want 1", rule, misses, total)
		}
	}
}

func TestBTBAlternatingDiscriminatesRules(t *testing.T) {
	// On a strictly alternating branch, the standard BTB mispredicts
	// every execution while BTB-2bc holds one target and gets half right
	// (the polymorphic-but-dominated pattern of §3.1).
	stream := repeat(0x1000, []uint32{0x2000, 0x3000}, 100)
	always := NewBTB(nil, UpdateAlways)
	twobc := NewBTB(nil, UpdateTwoMiss)
	mAlways, total := run(always, stream)
	mTwoBC, _ := run(twobc, stream)
	if mAlways < total-2 {
		t.Errorf("standard BTB: %d/%d misses, want ~all", mAlways, total)
	}
	if mTwoBC > total/2+2 {
		t.Errorf("BTB-2bc: %d/%d misses, want ~half", mTwoBC, total)
	}
}

func TestBTBBoundedEviction(t *testing.T) {
	// More hot branches than entries: a tiny BTB must keep missing.
	b := NewBTB(table.NewFullAssoc(2), UpdateTwoMiss)
	var stream []access
	for i := 0; i < 50; i++ {
		for site := uint32(0); site < 4; site++ {
			stream = append(stream, access{0x1000 + site*4, 0x2000 + site*0x100})
		}
	}
	misses, total := run(b, stream)
	if misses != total {
		t.Errorf("2-entry BTB over 4 round-robin sites: %d/%d misses, want all (LRU thrash)", misses, total)
	}
	if !strings.Contains(b.Name(), "fullassoc/2") {
		t.Errorf("Name = %q", b.Name())
	}
}

func TestBTBNames(t *testing.T) {
	if got := NewBTB(nil, UpdateAlways).Name(); got != "btb" {
		t.Errorf("Name = %q", got)
	}
	if got := NewBTB(nil, UpdateTwoMiss).Name(); got != "btb-2bc" {
		t.Errorf("Name = %q", got)
	}
}

func TestBTBReset(t *testing.T) {
	b := NewBTB(nil, UpdateTwoMiss)
	b.Update(0x1000, 0x2000)
	b.Reset()
	if _, ok := b.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
}

func mustTL(t *testing.T, cfg Config) *TwoLevel {
	t.Helper()
	tl, err := NewTwoLevel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestTwoLevelP0EquivalentToBTB(t *testing.T) {
	// Path length 0 reduces the two-level predictor to a BTB (§3.2.3).
	stream := repeat(0x1000, []uint32{0x2000, 0x3000, 0x2000, 0x2000}, 50)
	tl := mustTL(t, Config{PathLength: 0, Precision: AutoPrecision, TableKind: "unbounded"})
	btb := NewBTB(nil, UpdateTwoMiss)
	m1, _ := run(tl, stream)
	m2, _ := run(btb, stream)
	if m1 != m2 {
		t.Errorf("p=0 two-level misses %d, BTB misses %d", m1, m2)
	}
}

func TestTwoLevelLearnsCycle(t *testing.T) {
	// A period-3 cycle with distinct targets is perfectly predicted by
	// p=1 once the table is warm; a BTB keeps missing.
	stream := repeat(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 100)
	tl := mustTL(t, Config{PathLength: 1, Precision: AutoPrecision})
	btb := NewBTB(nil, UpdateTwoMiss)
	mTL, total := run(tl, stream)
	mBTB, _ := run(btb, stream)
	if mTL > 6 {
		t.Errorf("two-level p=1: %d/%d misses on period-3 cycle", mTL, total)
	}
	if mBTB < total/2 {
		t.Errorf("BTB unexpectedly good on cycle: %d/%d", mBTB, total)
	}
}

func TestTwoLevelPathLengthDisambiguates(t *testing.T) {
	// Cycle A,B,A,C: after target A the next target alternates B/C, so
	// p=1 stays ambiguous on half the steps while p=2 resolves the cycle
	// completely (§3.2.3: longer paths capture longer regularities).
	stream := repeat(0x1000, []uint32{0x2000, 0x3000, 0x2000, 0x4000}, 100)
	p1 := mustTL(t, Config{PathLength: 1, Precision: AutoPrecision})
	p2 := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision})
	m1, total := run(p1, stream)
	m2, _ := run(p2, stream)
	if m2 > 8 {
		t.Errorf("p=2: %d/%d misses, want near zero", m2, total)
	}
	if m1 < total/8 {
		t.Errorf("p=1: %d/%d misses, expected substantial ambiguity", m1, total)
	}
	if m2 >= m1 {
		t.Errorf("p=2 (%d) not better than p=1 (%d)", m2, m1)
	}
}

func TestTwoLevelGlobalBeatsPerBranchOnCorrelation(t *testing.T) {
	// Site Y takes pseudo-random targets; site X copies Y's choice. A
	// global history predicts X perfectly from Y's target; a per-branch
	// history sees only X's own aperiodic stream (§3.2.1).
	rng := rand.New(rand.NewPCG(31, 32))
	var stream []access
	for i := 0; i < 2000; i++ {
		yt := uint32(0x2000 + rng.IntN(8)*0x100)
		stream = append(stream, access{0x1000, yt})       // site Y
		stream = append(stream, access{0x1004, yt + 0x4}) // site X follows Y
	}
	global := mustTL(t, Config{PathLength: 1, HistShare: 32, Precision: AutoPrecision})
	perBranch := mustTL(t, Config{PathLength: 1, HistShare: 2, Precision: AutoPrecision})
	mG, total := run(global, stream)
	mP, _ := run(perBranch, stream)
	// Global: Y unpredictable (~7/8 miss), X perfect => just under half.
	// Per-branch: both unpredictable => near all.
	if mG >= mP {
		t.Errorf("global %d vs per-branch %d misses (total %d): sharing did not help", mG, mP, total)
	}
	if mG > total*6/10 {
		t.Errorf("global misses %d/%d, want < 60%%", mG, total)
	}
}

func TestTwoLevelTableSharingInterference(t *testing.T) {
	// Full-precision mode: with one globally shared history table (h=32)
	// two branches with identical history compete for one entry; with
	// per-branch tables (h=2) they do not (§3.2.2).
	var stream []access
	for i := 0; i < 200; i++ {
		stream = append(stream, access{0x1000, 0x2000})
		stream = append(stream, access{0x1004, 0x3000})
	}
	shared := mustTL(t, Config{PathLength: 0, Precision: 0, TableKind: "exact", TableShare: 32})
	perBr := mustTL(t, Config{PathLength: 0, Precision: 0, TableKind: "exact", TableShare: 2})
	mS, total := run(shared, stream)
	mP, _ := run(perBr, stream)
	if mP > 2 {
		t.Errorf("per-branch tables: %d/%d misses, want cold misses only", mP, total)
	}
	if mS <= mP {
		t.Errorf("shared table (%d misses) should interfere vs per-branch (%d)", mS, mP)
	}
}

func TestTwoLevelExactMatchesCompressedWhenLossless(t *testing.T) {
	// With few distinct targets whose identifying bits sit inside the
	// selected field, compression loses nothing: 8 bits at start 2 cover
	// targets 0x2000..0x23FC. p=3, b=8, xor keys vs exact keys must
	// predict identically on a deterministic cycle.
	targets := []uint32{0x2000, 0x2004, 0x2008, 0x200C, 0x2010}
	stream := repeat(0x1000, targets, 200)
	exact := mustTL(t, Config{PathLength: 3, Precision: 0, TableKind: "exact"})
	comp := mustTL(t, Config{PathLength: 3, Precision: 8})
	mE, _ := run(exact, stream)
	mC, _ := run(comp, stream)
	if mE != mC {
		t.Errorf("exact %d vs compressed %d misses", mE, mC)
	}
}

func TestTwoLevelPrecisionLoss(t *testing.T) {
	// Targets that differ only above the selected bits alias under heavy
	// compression: two targets 1<<20 apart are identical in bits [2..10),
	// so a 1-bit-per-target pattern cannot distinguish the paths.
	a, b := uint32(0x100000), uint32(0x200000)
	// Cycle: a a b b — after (a,a) comes b, after (a,b)... with p=2.
	stream := repeat(0x1000, []uint32{a, a, b, b}, 150)
	fine := mustTL(t, Config{PathLength: 2, Precision: 0, TableKind: "exact"})
	coarse := mustTL(t, Config{PathLength: 2, Precision: 2, StartBit: 2})
	mF, _ := run(fine, stream)
	mC, total := run(coarse, stream)
	if mF > 8 {
		t.Errorf("full precision: %d/%d misses", mF, total)
	}
	if mC <= mF {
		t.Errorf("coarse patterns (%d misses) should alias vs full precision (%d)", mC, mF)
	}
}

func TestTwoLevelBoundedCapacityMisses(t *testing.T) {
	// The same workload on a 16-entry vs unbounded table: eviction causes
	// extra misses (§5.1). Use many sites with distinct targets.
	rng := rand.New(rand.NewPCG(41, 42))
	var stream []access
	for i := 0; i < 4000; i++ {
		site := uint32(rng.IntN(64))
		stream = append(stream, access{0x1000 + site*4, 0x8000 + site*0x40})
	}
	small := mustTL(t, Config{PathLength: 0, Precision: AutoPrecision, TableKind: "fullassoc", Entries: 16})
	big := mustTL(t, Config{PathLength: 0, Precision: AutoPrecision, TableKind: "fullassoc", Entries: 128})
	mS, _ := run(small, stream)
	mB, _ := run(big, stream)
	if mS <= mB {
		t.Errorf("16-entry (%d misses) should trail 128-entry (%d)", mS, mB)
	}
	if mB > 64+16 {
		t.Errorf("128-entry table: %d misses, want ~64 cold misses", mB)
	}
}

func TestTwoLevelInterleaveBeatsConcatOneWay(t *testing.T) {
	// The Figure 13 pathology: with p=2 and a 1-way table, patterns
	// t2·t1 and t3·t1 share the index under concatenation and conflict;
	// interleaving separates them. Alternate two period-2 sub-cycles
	// sharing their most recent target.
	t1, t2, t3 := uint32(0x2000), uint32(0x2004), uint32(0x2008)
	// Sequence: t1 t2 t1 t3 ... at one site; predictions for the step
	// after t1 depend on (t2|t3) two back.
	stream := repeat(0x1000, []uint32{t1, t2, t1, t3}, 300)
	concat := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision, Scheme: bits.Concat, TableKind: "assoc1", Entries: 4096})
	il := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision, Scheme: bits.Reverse, TableKind: "assoc1", Entries: 4096})
	mC, _ := run(concat, stream)
	mI, total := run(il, stream)
	if mI > total/10 {
		t.Errorf("interleaved: %d/%d misses", mI, total)
	}
	// The concat predictor's conflict behaviour depends on which index
	// bits collide; it must be at least as bad as interleaved here.
	if mC < mI {
		t.Errorf("concat (%d) beat interleaved (%d) on the aliasing stream", mC, mI)
	}
}

func TestTwoLevelTaglessAlwaysAnswers(t *testing.T) {
	tl := mustTL(t, Config{PathLength: 1, Precision: AutoPrecision, Scheme: bits.Reverse, TableKind: "tagless", Entries: 16})
	tl.Update(0x1000, 0x2000)
	// Any pc mapping to the written slot now yields a prediction even
	// with a different key.
	hits := 0
	for pc := uint32(0x1000); pc < 0x1100; pc += 4 {
		if _, ok := tl.Predict(pc); ok {
			hits++
		}
	}
	if hits == 0 {
		t.Error("tagless predictor returned no aliased predictions")
	}
}

func TestTwoLevelUpdateRuleAblation(t *testing.T) {
	// A dominant target with occasional isolated deviations: 2bc keeps
	// the dominant target, always-update loses it for one extra access
	// (§3.2: ignoring a stand-alone miss is a good strategy).
	var targets []uint32
	for i := 0; i < 9; i++ {
		targets = append(targets, 0x2000)
	}
	targets = append(targets, 0x3000)
	// Use a BTB-shaped predictor (p=0) so history plays no role.
	stream := repeat(0x1000, targets, 60)
	twobc := mustTL(t, Config{PathLength: 0, Precision: AutoPrecision, Update: UpdateTwoMiss})
	always := mustTL(t, Config{PathLength: 0, Precision: AutoPrecision, Update: UpdateAlways})
	m2, _ := run(twobc, stream)
	mA, _ := run(always, stream)
	if m2 >= mA {
		t.Errorf("2bc (%d misses) should beat always-update (%d)", m2, mA)
	}
}

func TestTwoLevelIncludeCond(t *testing.T) {
	tl := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision, IncludeCond: true})
	// Train a perfect p=2 cycle, then inject conditional targets and
	// verify predictions are perturbed (the history was diluted).
	stream := repeat(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 50)
	run(tl, stream)
	before, okB := tl.Predict(0x1000)
	tl.ObserveCond(0x5000, 0x6000, true)
	tl.ObserveCond(0x5004, 0x7000, true)
	after, okA := tl.Predict(0x1000)
	if okB && okA && before == after {
		t.Error("conditional targets did not shift the history")
	}
	// Not-taken conditionals must not shift the history.
	tl2 := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision, IncludeCond: true})
	run(tl2, stream)
	b2, _ := tl2.Predict(0x1000)
	tl2.ObserveCond(0x5000, 0, false)
	a2, _ := tl2.Predict(0x1000)
	if b2 != a2 {
		t.Error("not-taken conditional shifted the history")
	}
	// Predictors without the variation ignore conditionals entirely.
	tl3 := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision})
	run(tl3, stream)
	b3, _ := tl3.Predict(0x1000)
	tl3.ObserveCond(0x5000, 0x6000, true)
	a3, _ := tl3.Predict(0x1000)
	if b3 != a3 {
		t.Error("IncludeCond=false predictor consumed a conditional")
	}
}

func TestTwoLevelIncludeAddress(t *testing.T) {
	// With IncludeAddress, each branch consumes two history slots, so a
	// p=2 predictor effectively sees only one branch back.
	tl := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision, IncludeAddress: true})
	m, total := run(tl, repeat(0x1000, []uint32{0x2000, 0x3000, 0x2000, 0x4000}, 100))
	plain := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision})
	mPlain, _ := run(plain, repeat(0x1000, []uint32{0x2000, 0x3000, 0x2000, 0x4000}, 100))
	if m <= mPlain {
		t.Errorf("address-diluted history (%d/%d) should trail targets-only (%d)", m, total, mPlain)
	}
}

func TestTwoLevelResetAndAccessors(t *testing.T) {
	tl := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision, Scheme: bits.Reverse, TableKind: "assoc2", Entries: 64})
	run(tl, repeat(0x1000, []uint32{0x2000, 0x3000}, 50))
	if u := tl.TableStats()[0].Occupancy; u <= 0 {
		t.Errorf("Occupancy = %v", u)
	}
	tl.Reset()
	if u := tl.TableStats()[0].Occupancy; u != 0 {
		t.Errorf("Occupancy after Reset = %v", u)
	}
	if _, ok := tl.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
	if tl.Patterns() != -1 {
		t.Errorf("bounded Patterns = %d, want -1", tl.Patterns())
	}
	un := mustTL(t, Config{PathLength: 2, Precision: AutoPrecision})
	run(un, repeat(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 20))
	if un.Patterns() <= 0 {
		t.Errorf("unbounded Patterns = %d", un.Patterns())
	}
	ex := mustTL(t, Config{PathLength: 2, Precision: 0, TableKind: "exact"})
	run(ex, repeat(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 20))
	if ex.Patterns() <= 0 {
		t.Errorf("exact Patterns = %d", ex.Patterns())
	}
	if u := ex.TableStats()[0].Occupancy; u != 1 {
		t.Errorf("exact Occupancy = %v", u)
	}
	ex.Reset()
	if ex.Patterns() != 0 {
		t.Errorf("exact Patterns after Reset = %d", ex.Patterns())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{PathLength: -1},
		{PathLength: 65},
		{PathLength: 4, Precision: 12}, // 48-bit pattern
		{PathLength: 2, Precision: 0, TableKind: "tagless", Entries: 64},
		{PathLength: 2, Precision: 40, TableKind: "exact"},
		{PathLength: 2, Precision: 8, StartBit: 1},
		{PathLength: 2, Precision: 8, StartBit: 40},
		{PathLength: 2, Precision: 8, TableKind: "tagless", Entries: 100},
		{PathLength: 2, Precision: 8, TableKind: "assoc3", Entries: 64},
		{PathLength: 2, Precision: 8, TableKind: "nope", Entries: 64},
		{PathLength: 2, Precision: 8, ConfBits: 99},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		if _, err := NewTwoLevel(cfg); err == nil {
			t.Errorf("NewTwoLevel accepted config %d", i)
		}
	}
	good := []Config{
		{},
		{PathLength: 8},
		{PathLength: 6, Precision: AutoPrecision, TableKind: "assoc4", Entries: 1024, Scheme: bits.PingPong},
		{PathLength: 12, Precision: AutoPrecision, TableKind: "tagless", Entries: 128},
		{PathLength: 3, Precision: 8, KeyOp: 1, TableKind: "fullassoc", Entries: 256},
		{PathLength: 12, Precision: 8, TableKind: "exact"}, // §4.1 study: wide exact keys
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d rejected: %v", i, err)
		}
	}
}

func TestConfigDefaultsAndName(t *testing.T) {
	cfg := Config{PathLength: 6, Precision: AutoPrecision, TableKind: "assoc4", Entries: 2048, Scheme: bits.Reverse}.Defaults()
	if cfg.Precision != 4 {
		t.Errorf("auto precision = %d, want 4", cfg.Precision)
	}
	if cfg.HistShare != 32 || cfg.TableShare != 2 || cfg.StartBit != 2 || cfg.ConfBits != 2 {
		t.Errorf("defaults: %+v", cfg)
	}
	name := cfg.Name()
	for _, frag := range []string{"p=6", "b=4", "reverse", "xor", "assoc4/2048"} {
		if !strings.Contains(name, frag) {
			t.Errorf("Name %q missing %q", name, frag)
		}
	}
	exact := Config{PathLength: 8}.Defaults()
	if exact.TableKind != "exact" || exact.Precision != 0 {
		t.Errorf("zero-value defaults: %+v", exact)
	}
	if !strings.Contains(exact.Name(), "full") {
		t.Errorf("exact Name %q", exact.Name())
	}
}

func TestMustTwoLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTwoLevel did not panic on bad config")
		}
	}()
	MustTwoLevel(Config{PathLength: -3})
}
