package sim

import (
	"context"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/trace"
)

// TestDisabledEventSinkZeroAllocs is the event layer's overhead guard: with
// no sink attached (the default of every sweep and benchmark), the steady-
// state block step must not allocate — the per-record cost of the event hook
// is one nil check. CI refuses to let this assertion skip.
func TestDisabledEventSinkZeroAllocs(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x2040, 0x2080}, 300)
	p := core.MustTwoLevel(core.Config{PathLength: 4, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "tagless", Entries: 512})
	l := trainedLane(p, tr, nil)
	if l.k.events != nil {
		t.Fatal("sink attached without Options.Events")
	}
	allocs := testing.AllocsPerRun(5, func() {
		l.step(tr, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled-sink step: %v allocs per %d-record block, want 0", allocs, len(tr))
	}
}

// TestEnabledEventSinkZeroAllocs pins the other half: a live sink records
// into its preallocated ring, so even full-trace capture adds no GC pressure
// to the hot loop.
func TestEnabledEventSinkZeroAllocs(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x2040, 0x2080}, 300)
	p := core.MustTwoLevel(core.Config{PathLength: 4, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "tagless", Entries: 512})
	sink := ptrace.NewEventSink(1<<16, 1)
	l := &lane{}
	l.init(p, Options{Events: sink}, nil)
	for pass := 0; pass < 2; pass++ {
		l.step(tr, nil)
	}
	allocs := testing.AllocsPerRun(5, func() {
		l.step(tr, nil)
	})
	if allocs != 0 {
		t.Errorf("enabled-sink step: %v allocs per %d-record block, want 0", allocs, len(tr))
	}
	if sink.Offered() == 0 {
		t.Error("sink saw no events")
	}
}

// TestEventStreamMatchesResult replays a run's event stream and checks it
// reproduces the Result's accounting exactly: executed, misses, and
// no-prediction counts, with warmup excluded the same way.
func TestEventStreamMatchesResult(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 200)
	p := core.MustTwoLevel(core.Config{PathLength: 2, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "assoc2", Entries: 64})
	sink := ptrace.NewEventSink(len(tr), 1)
	res, err := RunBatchEach(context.Background(), []core.Predictor{p}, tr, []Options{{Warmup: 50, Events: sink}})
	if err != nil {
		t.Fatal(err)
	}
	if !sink.Complete() {
		t.Fatalf("capture incomplete: offered %d, held %d", sink.Offered(), sink.Len())
	}
	evs := sink.Events()
	if len(evs) != len(tr) {
		t.Fatalf("captured %d events over %d indirect branches", len(evs), len(tr))
	}
	var executed, misses, nopred int
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.Warmup {
			continue
		}
		executed++
		if ev.Miss {
			misses++
		}
		if !ev.HasPred {
			nopred++
		}
	}
	if executed != res[0].Executed || misses != res[0].Misses || nopred != res[0].NoPrediction {
		t.Errorf("event replay %d/%d/%d != Result %d/%d/%d",
			executed, misses, nopred, res[0].Executed, res[0].Misses, res[0].NoPrediction)
	}
}

// TestEventAttributionDetail checks the predictor-side enrichment on a
// single-site trace: the first encounter is a no-prediction miss that
// allocates a new entry, later encounters hit the table under the same
// pattern set.
func TestEventAttributionDetail(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000}, 50)
	p := core.NewBTB(nil, core.UpdateTwoMiss)
	sink := ptrace.NewEventSink(len(tr), 1)
	if _, err := RunBatchEach(context.Background(), []core.Predictor{p}, tr, []Options{{Events: sink}}); err != nil {
		t.Fatal(err)
	}
	evs := sink.Events()
	first := evs[0]
	if first.HasPred || !first.Miss || first.TableHit {
		t.Errorf("first event should be a cold table miss: %+v", first)
	}
	if !first.NewEntry || first.Evicted {
		t.Errorf("first update should allocate without evicting: %+v", first)
	}
	if first.Pattern == 0 {
		t.Errorf("BTB attribution left Pattern empty: %+v", first)
	}
	for i, ev := range evs[1:] {
		if !ev.TableHit || ev.Miss {
			t.Fatalf("event %d: monomorphic site missed after training: %+v", i+1, ev)
		}
		if ev.Pattern != first.Pattern {
			t.Fatalf("pattern drifted on a single-site BTB: %x vs %x", ev.Pattern, first.Pattern)
		}
	}
}

// TestEventHybridComponentAndMisSteer drives a dual-path hybrid and checks
// the metapredictor attribution: events carry a chosen component, and over a
// noisy stream at least one miss is flagged AltCorrect (the other component
// was right while the chosen one was wrong).
func TestEventHybridComponentAndMisSteer(t *testing.T) {
	// Alternating short cycles with occasional phase flips make the two
	// path lengths disagree regularly.
	var tr trace.Trace
	for i := 0; i < 400; i++ {
		t1 := uint32(0x2000 + 0x40*(i%3))
		t2 := uint32(0x8000 + 0x40*((i/7)%5))
		tr = append(tr,
			trace.Record{PC: 0x1000, Target: t1, Kind: trace.IndirectJump, Gap: 10},
			trace.Record{PC: 0x1400, Target: t2, Kind: trace.VirtualCall, Gap: 10},
		)
	}
	h, err := core.NewDualPath(1, 6, "assoc4", 256)
	if err != nil {
		t.Fatal(err)
	}
	sink := ptrace.NewEventSink(len(tr), 1)
	if _, err := RunBatchEach(context.Background(), []core.Predictor{h}, tr, []Options{{Events: sink}}); err != nil {
		t.Fatal(err)
	}
	var chosen0, chosen1, altCorrect int
	for _, ev := range sink.Events() {
		switch ev.Component {
		case 0:
			chosen0++
		case 1:
			chosen1++
		}
		if ev.Miss && ev.AltCorrect {
			altCorrect++
		}
	}
	if chosen0 == 0 || chosen1 == 0 {
		t.Errorf("metapredictor never exercised both components: %d/%d", chosen0, chosen1)
	}
	if altCorrect == 0 {
		t.Error("no metapredictor mis-steer detected over a divergent stream")
	}
}

// TestSharedEventSinkRejected pins the one-sink-per-lane contract for both
// batch entry points.
func TestSharedEventSinkRejected(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000}, 10)
	mk := func() core.Predictor { return core.NewBTB(nil, core.UpdateTwoMiss) }
	sink := ptrace.NewEventSink(64, 1)
	_, err := RunBatch(context.Background(), []core.Predictor{mk(), mk()}, tr, Options{Events: sink})
	if err == nil {
		t.Error("RunBatch accepted a shared sink across 2 lanes")
	}
	_, err = RunBatchEach(context.Background(), []core.Predictor{mk(), mk()}, tr,
		[]Options{{Events: sink}, {Events: sink}})
	if err == nil {
		t.Error("RunBatchEach accepted one sink on 2 lanes")
	}
	// Distinct sinks are fine.
	_, err = RunBatchEach(context.Background(), []core.Predictor{mk(), mk()}, tr,
		[]Options{{Events: ptrace.NewEventSink(64, 1)}, {Events: ptrace.NewEventSink(64, 1)}})
	if err != nil {
		t.Errorf("distinct sinks rejected: %v", err)
	}
}
