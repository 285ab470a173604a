package core

import (
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/table"
)

// mixedStream builds the canonical hybrid test workload: site L runs a
// period-6 cycle with a repeated target (needs a long path to disambiguate),
// site M's target is a deterministic function of the last two targets but is
// surrounded by noise from site N (so long paths see mostly-unique patterns
// and never warm up), and site N is pseudo-random (unpredictable for
// everyone).
func mixedStream(n int, seed uint64) []access {
	rng := rand.New(rand.NewPCG(seed, seed^0xABCD))
	cycleL := []uint32{0x2000, 0x2004, 0x2000, 0x2008, 0x2000, 0x200C}
	li := 0
	var out []access
	for len(out) < n {
		// Noise branch: 64 possible targets, uniformly random.
		nt := uint32(0x8000 + rng.IntN(64)*0x40)
		out = append(out, access{0x1008, nt})
		// Correlated branch M: copies the noise target's low field.
		out = append(out, access{0x1004, 0x4000 + (nt & 0xFC0)})
		// Long-cycle branch L.
		out = append(out, access{0x1000, cycleL[li%len(cycleL)]})
		li++
	}
	return out[:n]
}

func TestHybridBeatsBothComponents(t *testing.T) {
	stream := mixedStream(6000, 77)
	mk := func(p int) *TwoLevel {
		return MustTwoLevel(Config{PathLength: p, Precision: AutoPrecision})
	}
	short, long := mk(2), mk(8)
	mShort, total := run(short, stream)
	mLong, _ := run(long, stream)
	hyb := MustHybrid(mk(2), mk(8))
	mHyb, _ := run(hyb, stream)
	t.Logf("short=%d long=%d hybrid=%d total=%d", mShort, mLong, mHyb, total)
	if mHyb >= mShort || mHyb >= mLong {
		t.Errorf("hybrid (%d) did not beat components (short %d, long %d)", mHyb, mShort, mLong)
	}
}

func TestHybridTieBreakOrder(t *testing.T) {
	// Two fake components with equal confidence and different targets:
	// the earlier component must win the tie.
	a := &fakeComponent{target: 0x1111, conf: 2, ok: true}
	b := &fakeComponent{target: 0x2222, conf: 2, ok: true}
	h := MustHybrid(a, b)
	if got, ok := h.Predict(0x1000); !ok || got != 0x1111 {
		t.Errorf("tie went to %#x, want first component", got)
	}
	// Higher confidence wins regardless of order.
	b.conf = 3
	if got, _ := h.Predict(0x1000); got != 0x2222 {
		t.Errorf("confidence 3 lost to confidence 2 (got %#x)", got)
	}
	// A missing first component falls through to the second.
	a.ok = false
	b.conf = 0
	if got, ok := h.Predict(0x1000); !ok || got != 0x2222 {
		t.Errorf("fallthrough failed: %#x %v", got, ok)
	}
	b.ok = false
	if _, ok := h.Predict(0x1000); ok {
		t.Error("hybrid predicted with no component predictions")
	}
}

func TestHybridUpdatesAllComponents(t *testing.T) {
	a := &fakeComponent{}
	b := &fakeComponent{}
	h := MustHybrid(a, b)
	h.Update(0x1000, 0x2000)
	h.Update(0x1000, 0x3000)
	if a.updates != 2 || b.updates != 2 {
		t.Errorf("updates: a=%d b=%d, want 2 each", a.updates, b.updates)
	}
}

func TestHybridErrorsAndName(t *testing.T) {
	if _, err := NewHybrid(&fakeComponent{}); err == nil {
		t.Error("single-component hybrid accepted")
	}
	h := MustHybrid(&fakeComponent{}, &fakeComponent{})
	if !strings.HasPrefix(h.Name(), "hybrid(") {
		t.Errorf("Name = %q", h.Name())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHybrid did not panic")
		}
	}()
	MustHybrid(&fakeComponent{})
}

func TestHybridReset(t *testing.T) {
	h := MustHybrid(
		MustTwoLevel(Config{PathLength: 1, Precision: AutoPrecision}),
		MustTwoLevel(Config{PathLength: 3, Precision: AutoPrecision}),
	)
	run(h, repeat(0x1000, []uint32{0x2000, 0x3000}, 50))
	h.Reset()
	if _, ok := h.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
}

func TestNewDualPath(t *testing.T) {
	h, err := NewDualPath(3, 1, "assoc4", 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, total := run(h, repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 200))
	if m > total/10 {
		t.Errorf("dual-path hybrid: %d/%d misses on learnable cycle", m, total)
	}
	if _, err := NewDualPath(3, 1, "bogus", 1024); err == nil {
		t.Error("bad table kind accepted")
	}
	if _, err := NewDualPath(-1, 1, "assoc2", 64); err == nil {
		t.Error("negative path accepted")
	}
}

func TestThreeComponentHybrid(t *testing.T) {
	// §8.1 extension: three path lengths. Must at least match the best
	// pairwise hybrid on the mixed stream within noise.
	stream := mixedStream(6000, 99)
	mk := func(p int) *TwoLevel {
		return MustTwoLevel(Config{PathLength: p, Precision: AutoPrecision})
	}
	h3 := MustHybrid(mk(1), mk(4), mk(10))
	m3, total := run(h3, stream)
	h2 := MustHybrid(mk(1), mk(4))
	m2, _ := run(h2, stream)
	if m3 > m2+total/50 {
		t.Errorf("3-component hybrid (%d) much worse than 2-component (%d)", m3, m2)
	}
}

func TestBTBAsHybridComponent(t *testing.T) {
	// BTB + long-path two-level: the classic "short adapts, long
	// disambiguates" pairing, with the BTB as the degenerate short end.
	h := MustHybrid(
		NewBTB(nil, UpdateTwoMiss),
		MustTwoLevel(Config{PathLength: 4, Precision: AutoPrecision}),
	)
	m, total := run(h, repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 150))
	if m > total/8 {
		t.Errorf("btb+p4 hybrid: %d/%d misses", m, total)
	}
}

// fakeComponent is a scriptable Component for metaprediction unit tests.
type fakeComponent struct {
	target  uint32
	conf    uint8
	ok      bool
	updates int
}

func (f *fakeComponent) Predict(pc uint32) (uint32, bool) { return f.target, f.ok }
func (f *fakeComponent) PredictConf(pc uint32) (uint32, uint8, bool) {
	return f.target, f.conf, f.ok
}
func (f *fakeComponent) Update(pc, target uint32) { f.updates++ }
func (f *fakeComponent) Name() string             { return "fake" }

func TestBPSTHybridLearnsSelection(t *testing.T) {
	// Component a is always wrong, b always right: the selector must
	// migrate to b.
	a := &fakeComponent{target: 0x9999, conf: 0, ok: true}
	b := &fakeComponent{target: 0x2000, conf: 0, ok: true}
	h, err := NewBPSTHybrid(a, b, 64)
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	for i := 0; i < 20; i++ {
		got, ok := h.Predict(0x1000)
		if !ok || got != 0x2000 {
			misses++
		}
		h.Update(0x1000, 0x2000)
	}
	if misses > 3 {
		t.Errorf("BPST took %d misses to converge", misses)
	}
	if a.updates != 20 || b.updates != 20 {
		t.Errorf("both components must train: a=%d b=%d", a.updates, b.updates)
	}
}

func TestBPSTHybridFallback(t *testing.T) {
	a := &fakeComponent{ok: false}
	b := &fakeComponent{target: 0x2000, ok: true}
	h, err := NewBPSTHybrid(a, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Predict(0x1000); !ok || got != 0x2000 {
		t.Errorf("fallback: %#x %v", got, ok)
	}
	h.Update(0x1000, 0x2000)
	h.Reset()
	if a.updates != 1 || b.updates != 1 {
		t.Error("update counts after reset path")
	}
}

func TestBPSTHybridErrors(t *testing.T) {
	a, b := &fakeComponent{}, &fakeComponent{}
	for _, n := range []int{0, -4, 3} {
		if _, err := NewBPSTHybrid(a, b, n); err == nil {
			t.Errorf("selector size %d accepted", n)
		}
	}
	h, _ := NewBPSTHybrid(a, b, 16)
	if !strings.HasPrefix(h.Name(), "bpst(") {
		t.Errorf("Name = %q", h.Name())
	}
}

// divergentStream builds a workload where the best component differs per
// *pattern* within a single branch site S: on odd rounds S copies the noise
// branch (predictable only by the short component — the noise bits sit above
// the long component's 3-bit fields), on even rounds S follows a long cycle
// with repeats (predictable only by the long component). A per-branch BPST
// cannot split S between components; per-pattern confidence can.
func divergentStream(n int, seed uint64) []access {
	rng := rand.New(rand.NewPCG(seed, seed^0x5555))
	cycle := []uint32{0x2000, 0x2004, 0x2000, 0x2008, 0x2000, 0x200C}
	var out []access
	k := 0
	for len(out) < n {
		// Noise: bits 6..11 vary (invisible to b=3 compression).
		nt := uint32(0x8000 + rng.IntN(64)*0x40)
		out = append(out, access{0x1008, nt})
		var st uint32
		if k%2 == 1 {
			st = 0x4000 + (nt & 0xFC0) // short-predictable behaviour
		} else {
			st = cycle[(k/2)%len(cycle)] // long-predictable behaviour
		}
		out = append(out, access{0x1000, st})
		k++
	}
	return out[:n]
}

func TestConfidenceVsBPSTOnPatternLevelDivergence(t *testing.T) {
	// §6.1: per-pattern confidence metaprediction is finer-grained than a
	// per-branch BPST; on a branch whose best component depends on the
	// pattern, confidence must win.
	stream := divergentStream(8000, 123)
	mk := func(p int) *TwoLevel {
		return MustTwoLevel(Config{PathLength: p, Precision: AutoPrecision})
	}
	conf := MustHybrid(mk(2), mk(8))
	mConf, total := run(conf, stream)
	bp, _ := NewBPSTHybrid(mk(2), mk(8), 1024)
	mBP, _ := run(bp, stream)
	t.Logf("confidence=%d bpst=%d total=%d", mConf, mBP, total)
	if mConf > mBP+total/100 {
		t.Errorf("confidence metaprediction (%d) clearly worse than BPST (%d)", mConf, mBP)
	}
}

func TestSharedHybridSmoke(t *testing.T) {
	s, err := NewSharedHybrid(3, 1, "assoc4", 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, total := run(s, repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 200))
	if m > total/5 {
		t.Errorf("shared hybrid: %d/%d misses on learnable cycle", m, total)
	}
	if !strings.HasPrefix(s.Name(), "shared-hybrid[") {
		t.Errorf("Name = %q", s.Name())
	}
	s.Reset()
	if _, ok := s.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
}

func TestSharedHybridErrors(t *testing.T) {
	if _, err := NewSharedHybrid(3, 3, "assoc4", 64); err == nil {
		t.Error("equal path lengths accepted")
	}
	if _, err := NewSharedHybrid(3, 1, "bogus", 64); err == nil {
		t.Error("bad table accepted")
	}
}

func TestSharedHybridProtectsChosenEntries(t *testing.T) {
	// With a tiny table, the chosen-counter should reduce thrashing
	// relative to two independent tiny tables totalling the same size
	// on a stream with one hot perfectly-predictable branch plus churn.
	rng := rand.New(rand.NewPCG(55, 56))
	var stream []access
	for i := 0; i < 4000; i++ {
		stream = append(stream, access{0x1000, 0x2000}) // hot monomorphic
		site := uint32(rng.IntN(128))
		stream = append(stream, access{0x4000 + site*4, 0x8000 + uint32(rng.IntN(16))*0x40})
	}
	s, err := NewSharedHybrid(1, 0, "assoc4", 64)
	if err != nil {
		t.Fatal(err)
	}
	misses, total := run(s, stream)
	if misses >= total {
		t.Errorf("shared hybrid learned nothing: %d/%d", misses, total)
	}
	// The hot branch at least must be predicted most of the time.
	hot := MustTwoLevel(Config{PathLength: 0, Precision: AutoPrecision, TableKind: "assoc4", Entries: 64})
	mHot, _ := run(hot, stream)
	if misses > mHot*3/2+100 {
		t.Errorf("shared hybrid (%d) far worse than single component (%d)", misses, mHot)
	}
}

// stableAssoc is a reference 4-way LRU set-associative table whose entries
// never move: each is its own allocation, so an *Entry held across probes
// keeps naming its key. It implements the part of table.Bounded that
// SharedHybrid uses, with SetAssoc's set selection and replacement.
type stableAssoc struct {
	table.Bounded               // methods SharedHybrid does not call
	sets          [][]stableWay // per set, most recently used first
	ways          int
}

type stableWay struct {
	key uint64
	e   *table.Entry
}

func newStableAssoc(entries, ways int) *stableAssoc {
	return &stableAssoc{sets: make([][]stableWay, entries/ways), ways: ways}
}

func (t *stableAssoc) set(key uint64) *[]stableWay { return &t.sets[key%uint64(len(t.sets))] }

func (t *stableAssoc) Probe(key uint64) *table.Entry {
	set := t.set(key)
	for i, w := range *set {
		if w.key == key {
			copy((*set)[1:i+1], (*set)[:i])
			(*set)[0] = w
			return w.e
		}
	}
	return nil
}

func (t *stableAssoc) Insert(key uint64) *table.Entry {
	set := t.set(key)
	if len(*set) == t.ways {
		*set = (*set)[:t.ways-1]
	}
	w := stableWay{key, &table.Entry{}}
	*set = append([]stableWay{w}, *set...)
	return w.e
}

func (t *stableAssoc) Victim(key uint64) *table.Entry {
	if set := *t.set(key); len(set) == t.ways {
		return set[t.ways-1].e
	}
	return nil
}

// TestSharedHybridMatchesStableReference pins the entry-pointer rule in
// SharedHybrid: both component keys probe one table, and on a set-associative
// table a hit on the second key reorders the set under the first key's entry.
// An 8-entry assoc4 table (two sets) puts both keys in one set most of the
// time; the hybrid must predict exactly what the same hybrid predicts over
// the pointer-stable reference table.
func TestSharedHybridMatchesStableReference(t *testing.T) {
	got, err := NewSharedHybrid(2, 1, "assoc4", 8)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSharedHybrid(2, 1, "assoc4", 8)
	if err != nil {
		t.Fatal(err)
	}
	ref.tab = newStableAssoc(8, 4)
	rng := rand.New(rand.NewPCG(61, 62))
	for i := 0; i < 20000; i++ {
		pc := 0x1000 + uint32(rng.IntN(4))*4
		target := 0x2000 + uint32(rng.IntN(3))*4
		gt, gok := got.Predict(pc)
		rt, rok := ref.Predict(pc)
		if gt != rt || gok != rok {
			t.Fatalf("step %d pc %#x: predicted (%#x, %v), reference (%#x, %v)", i, pc, gt, gok, rt, rok)
		}
		got.Update(pc, target)
		ref.Update(pc, target)
	}
}

func TestCascadePrefersLongestMatch(t *testing.T) {
	c, err := NewCascade([]int{1, 4}, "assoc4", 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Period-4 cycle with a repeat: p=1 ambiguous, p=4 exact; the
	// cascade must approach the p=4 component's accuracy.
	stream := repeat(0x1000, []uint32{0x2000, 0x2004, 0x2000, 0x2008}, 200)
	mC, total := run(c, stream)
	solo := MustTwoLevel(Config{PathLength: 4, Precision: AutoPrecision, TableKind: "assoc4", Entries: 1024})
	mS, _ := run(solo, stream)
	if mC > mS+total/20 {
		t.Errorf("cascade %d misses vs longest component %d", mC, mS)
	}
	if !strings.HasPrefix(c.Name(), "ppm[p=4.1") {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCascadeFallsBackToShort(t *testing.T) {
	// A fresh long-pattern context must fall back to the short
	// component: train p=1 knowledge, then perturb the deep history.
	c, err := NewCascade([]int{0, 6}, "assoc4", 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, total := run(c, repeat(0x1000, []uint32{0x2000}, 100))
	if m > 2 {
		t.Errorf("cascade on monomorphic branch: %d/%d misses", m, total)
	}
	c.Reset()
	if _, ok := c.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
}

func TestCascadeErrorsAndDedup(t *testing.T) {
	if _, err := NewCascade([]int{3}, "assoc2", 64); err == nil {
		t.Error("single path accepted")
	}
	if _, err := NewCascade([]int{3, -1}, "assoc2", 64); err == nil {
		t.Error("negative path accepted")
	}
	if _, err := NewCascade([]int{1, 3}, "bogus", 64); err == nil {
		t.Error("bad table accepted")
	}
	c, err := NewCascade([]int{3, 3, 1, 1}, "assoc2", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.comps) != 2 {
		t.Errorf("dedup kept %d components", len(c.comps))
	}
}

func TestTargetCache(t *testing.T) {
	tc, err := NewTargetCache(4, "tagless", 512)
	if err != nil {
		t.Fatal(err)
	}
	// An indirect branch whose target is determined by the preceding
	// conditional's direction: the taken/not-taken history separates the
	// two cases. (4 history bits keep the warm-up to 16 patterns.)
	rng := rand.New(rand.NewPCG(61, 62))
	misses := 0
	const n = 2000
	for i := 0; i < n; i++ {
		taken := rng.IntN(2) == 1
		var ct uint32
		if taken {
			ct = 0x5000
		}
		tc.ObserveCond(0x4000, ct, taken)
		want := uint32(0x2000)
		if taken {
			want = 0x3000
		}
		got, ok := tc.Predict(0x1000)
		if !ok || got != want {
			misses++
		}
		tc.Update(0x1000, want)
	}
	if misses > n/10 {
		t.Errorf("target cache: %d/%d misses on cond-correlated branch", misses, n)
	}
	if !strings.HasPrefix(tc.Name(), "tcache[gshare(4)") {
		t.Errorf("Name = %q", tc.Name())
	}
	tc.Reset()
	if _, ok := tc.Predict(0x1000); ok {
		t.Error("prediction survived Reset")
	}
}

func TestTargetCacheCannotSeeTargetPaths(t *testing.T) {
	// The paper's point vs. [CHP97]: without conditional information, a
	// target cache is blind to target-path correlation. Feed the A,B,A,C
	// cycle with no conditionals: the cache degenerates to a BTB.
	tc, err := NewTargetCache(9, "tagless", 512)
	if err != nil {
		t.Fatal(err)
	}
	stream := repeat(0x1000, []uint32{0x2000, 0x3000, 0x2000, 0x4000}, 100)
	mTC, total := run(tc, stream)
	path := MustTwoLevel(Config{PathLength: 2, Precision: AutoPrecision})
	mPath, _ := run(path, stream)
	if mTC <= mPath {
		t.Errorf("target cache (%d/%d) should trail path-based predictor (%d)", mTC, total, mPath)
	}
}

func TestTargetCacheErrors(t *testing.T) {
	if _, err := NewTargetCache(0, "tagless", 64); err == nil {
		t.Error("0 history bits accepted")
	}
	if _, err := NewTargetCache(31, "tagless", 64); err == nil {
		t.Error("31 history bits accepted")
	}
	if _, err := NewTargetCache(9, "bogus", 64); err == nil {
		t.Error("bad table accepted")
	}
}
