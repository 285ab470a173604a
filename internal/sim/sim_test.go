package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/trace"
)

// cycleTrace builds n repetitions of a target cycle at one site.
func cycleTrace(pc uint32, targets []uint32, n int) trace.Trace {
	out := make(trace.Trace, 0, n*len(targets))
	for i := 0; i < n; i++ {
		for _, t := range targets {
			out = append(out, trace.Record{PC: pc, Target: t, Kind: trace.IndirectJump, Gap: 10})
		}
	}
	return out
}

func TestRunCountsMisses(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000}, 100)
	res := Run(core.NewBTB(nil, core.UpdateTwoMiss), tr, Options{})
	if res.Executed != 100 {
		t.Fatalf("Executed = %d", res.Executed)
	}
	if res.Misses != 1 || res.NoPrediction != 1 {
		t.Errorf("monomorphic branch: %d misses, %d no-prediction (want 1, 1)", res.Misses, res.NoPrediction)
	}
	if got := res.MissRate(); got != 1.0 {
		t.Errorf("MissRate = %v, want 1.0", got)
	}
}

func TestRunSkipsNonIndirect(t *testing.T) {
	tr := trace.Trace{
		{PC: 0x1000, Target: 0x2000, Kind: trace.Return, Gap: 1},
		{PC: 0x1004, Target: 0x2000, Kind: trace.Cond, Gap: 1},
		{PC: 0x1008, Target: 0x2000, Kind: trace.VirtualCall, Gap: 1},
	}
	res := Run(core.NewBTB(nil, core.UpdateTwoMiss), tr, Options{})
	if res.Executed != 1 {
		t.Errorf("Executed = %d, want 1 (returns and conds excluded)", res.Executed)
	}
}

func TestRunWarmup(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 50)
	pred := core.MustTwoLevel(core.Config{PathLength: 1, Precision: core.AutoPrecision})
	res := Run(pred, tr, Options{Warmup: 30})
	if res.Executed != 120 {
		t.Fatalf("Executed = %d, want 120", res.Executed)
	}
	if res.Misses != 0 {
		t.Errorf("after warmup the p=1 predictor should be perfect, got %d misses", res.Misses)
	}
	if res.Warmup != 30 {
		t.Errorf("Warmup = %d", res.Warmup)
	}
}

func TestRunShadowAttributesCapacityMisses(t *testing.T) {
	// 8 round-robin monomorphic sites against a 4-entry BTB: after the
	// first pass every miss is a pure capacity miss (the unbounded shadow
	// predicts it).
	var tr trace.Trace
	for i := 0; i < 50; i++ {
		for s := uint32(0); s < 8; s++ {
			tr = append(tr, trace.Record{PC: 0x1000 + s*4, Target: 0x2000 + s*0x100, Kind: trace.IndirectCall, Gap: 5})
		}
	}
	subject := core.MustTwoLevel(core.Config{PathLength: 0, Precision: core.AutoPrecision, TableKind: "fullassoc", Entries: 4})
	shadow := core.MustTwoLevel(core.Config{PathLength: 0, Precision: core.AutoPrecision})
	res := Run(subject, tr, Options{Shadow: shadow})
	if res.Misses != res.Executed {
		t.Fatalf("LRU thrash expected: %d/%d misses", res.Misses, res.Executed)
	}
	wantCapacity := res.Misses - 8 // all but the 8 cold misses
	if res.CapacityMisses != wantCapacity {
		t.Errorf("CapacityMisses = %d, want %d", res.CapacityMisses, wantCapacity)
	}
	if res.CapacityRate() <= 0 {
		t.Errorf("CapacityRate = %v", res.CapacityRate())
	}
	if !strings.Contains(res.String(), "capacity") {
		t.Errorf("String() = %q, missing capacity", res.String())
	}
}

func TestRunDeliversCondToObservers(t *testing.T) {
	tc, err := core.NewTargetCache(4, "tagless", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Branch target decided by preceding conditional direction.
	var tr trace.Trace
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		var ct uint32
		target := uint32(0x2000)
		if taken {
			ct = 0x5000
			target = 0x3000
		}
		tr = append(tr,
			trace.Record{PC: 0x4000, Target: ct, Kind: trace.Cond, Gap: 2},
			trace.Record{PC: 0x1000, Target: target, Kind: trace.SwitchJump, Gap: 8},
		)
	}
	res := Run(tc, tr, Options{})
	if res.MissRate() > 10 {
		t.Errorf("target cache with cond feed: %.1f%% misses", res.MissRate())
	}
	// Without the conditional records the same branch is a coin flip.
	tc2, _ := core.NewTargetCache(4, "tagless", 64)
	var noCond trace.Trace
	for _, r := range tr {
		if r.Kind != trace.Cond {
			noCond = append(noCond, r)
		}
	}
	res2 := Run(tc2, noCond, Options{})
	if res2.MissRate() < 25 {
		t.Errorf("cond-blind run unexpectedly good: %.1f%%", res2.MissRate())
	}
}

// condCounter is a BTB that counts the conditional records it is handed and
// declares through ReadsCond whether it wants them.
type condCounter struct {
	*core.BTB
	reads bool
	seen  int
}

func (c *condCounter) ObserveCond(pc, target uint32, taken bool) { c.seen++ }
func (c *condCounter) ReadsCond() bool                           { return c.reads }

// TestKernelSkipsCondObserversThatDoNotRead pins that the kernel hands
// conditional records only to observers that read them, predictor and
// shadow alike.
func TestKernelSkipsCondObserversThatDoNotRead(t *testing.T) {
	tr := trace.Trace{
		{PC: 0x4000, Target: 0x5000, Kind: trace.Cond, Gap: 2},
		{PC: 0x1000, Target: 0x2000, Kind: trace.IndirectJump, Gap: 8},
		{PC: 0x4004, Kind: trace.Cond, Gap: 2},
	}
	for _, reads := range []bool{false, true} {
		p := &condCounter{BTB: core.NewBTB(nil, core.UpdateTwoMiss), reads: reads}
		shadow := &condCounter{BTB: core.NewBTB(nil, core.UpdateTwoMiss), reads: reads}
		Run(p, tr, Options{Shadow: shadow})
		want := 0
		if reads {
			want = 2
		}
		if p.seen != want || shadow.seen != want {
			t.Errorf("ReadsCond %v: predictor saw %d, shadow saw %d conditionals, want %d",
				reads, p.seen, shadow.seen, want)
		}
	}
}

func TestRunPerSite(t *testing.T) {
	tr := append(cycleTrace(0x1000, []uint32{0x2000}, 10),
		cycleTrace(0x2000, []uint32{0x3000, 0x4000}, 10)...)
	res := Run(core.NewBTB(nil, core.UpdateAlways), tr, Options{Sites: true})
	if len(res.PerSite) != 2 {
		t.Fatalf("PerSite has %d sites", len(res.PerSite))
	}
	easy, hard := res.PerSite[0x1000], res.PerSite[0x2000]
	if easy.Executed != 10 || hard.Executed != 20 {
		t.Errorf("per-site executed: %+v %+v", easy, hard)
	}
	if easy.Misses >= hard.Misses {
		t.Errorf("alternating site should miss more: %d vs %d", easy.Misses, hard.Misses)
	}
}

func TestResultZeroValues(t *testing.T) {
	var r Result
	if r.MissRate() != 0 || r.CapacityRate() != 0 {
		t.Error("zero result rates")
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestMissRateHelper(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 100)
	always := MissRate(core.NewBTB(nil, core.UpdateAlways), tr)
	twobc := MissRate(core.NewBTB(nil, core.UpdateTwoMiss), tr)
	if always <= twobc {
		t.Errorf("update-always (%v) should trail 2bc (%v) on alternation", always, twobc)
	}
}

func TestRunContextCancelled(t *testing.T) {
	// Big enough to span several cancellation-check strides.
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 3*blockSize)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, core.NewBTB(nil, core.UpdateTwoMiss), tr, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Executed >= len(tr) {
		t.Errorf("cancelled run executed all %d branches", res.Executed)
	}
}

func TestRunContextCleanMatchesRun(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 500)
	want := Run(core.NewBTB(nil, core.UpdateTwoMiss), tr, Options{})
	got, err := RunContext(context.Background(), core.NewBTB(nil, core.UpdateTwoMiss), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Misses != want.Misses || got.Executed != want.Executed {
		t.Errorf("RunContext %+v != Run %+v", got, want)
	}
}
