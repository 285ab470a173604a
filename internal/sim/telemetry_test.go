package sim

import (
	"context"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// trainedBatch returns a one-lane batch over p with the given options,
// trained on tr (two full passes) and wired to the given metrics, so a
// replay of tr is pure steady state.
func trainedBatch(t *testing.T, p core.Predictor, opts Options, tr trace.Trace, m *runMetrics) *batch {
	t.Helper()
	b, err := newBatch([]core.Predictor{p}, []Options{opts}, len(tr), m)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		b.step(tr)
	}
	return b
}

// stepCase is one way a batch steps a lane with Options{}.
type stepCase struct {
	name  string
	keyed bool // the lane accounts from tapes, not through Kernel.Run
	p     core.Predictor
}

// stepCases returns a fresh predictor for each way a batch steps a lane,
// both over the same tagless table: per-address histories keep a TwoLevel
// off the tapes, so its lane runs Kernel.Run; one global history makes it
// keyed.
func stepCases() []stepCase {
	cfg := core.Config{PathLength: 4, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "tagless", Entries: 512}
	perAddr := cfg
	perAddr.HistShare = 2
	return []stepCase{
		{"kernel", false, core.MustTwoLevel(perAddr)},
		{"keyed", true, core.MustTwoLevel(cfg)},
	}
}

// trainedCase is trainedBatch over a case's predictor with Options{}, and
// fails the test unless the lane takes the case's path.
func trainedCase(t *testing.T, c stepCase, tr trace.Trace, m *runMetrics) *batch {
	t.Helper()
	b := trainedBatch(t, c.p, Options{}, tr, m)
	if keyed := b.lanes[0].keyed != nil; keyed != c.keyed {
		t.Fatalf("lane keyed = %v, want %v", keyed, c.keyed)
	}
	return b
}

// TestInstrumentedStepZeroAllocs pins telemetry's allocation cost: the
// per-block step with LIVE telemetry handles must not allocate in steady
// state, whether the lane runs Kernel.Run or accounts from tapes. Together
// with core's TestSteadyStateZeroAllocs (the uninstrumented loop) this pins
// the invariant that enabling -metrics cannot introduce GC pressure into the
// hot loop.
func TestInstrumentedStepZeroAllocs(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x2040, 0x2080}, 300)
	for _, c := range stepCases() {
		t.Run(c.name, func(t *testing.T) {
			reg := telemetry.New()
			m := newRunMetrics(reg)
			if m == nil {
				t.Fatal("metrics nil with a live registry")
			}
			b := trainedCase(t, c, tr, m)
			allocs := testing.AllocsPerRun(5, func() {
				b.step(tr)
			})
			if allocs != 0 {
				t.Errorf("instrumented step: %v allocs per %d-record block, want 0", allocs, len(tr))
			}
			if reg.Snapshot()["sim_records_total"] == 0 {
				t.Error("metrics did not move during the instrumented steps")
			}
		})
	}
}

// TestRunBatchEachPublishesTelemetry runs the batch engine with the default
// registry enabled and checks both outputs: registry counters and the
// per-Result table snapshot.
func TestRunBatchEachPublishesTelemetry(t *testing.T) {
	telemetry.Enable(nil)
	defer telemetry.Disable()
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 500)
	p := core.MustTwoLevel(core.Config{PathLength: 2, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "assoc2", Entries: 64})
	res, err := RunBatchEach(context.Background(), []core.Predictor{p}, tr, []Options{{}})
	if err != nil {
		t.Fatal(err)
	}
	s := telemetry.Default().Snapshot()
	if s["sim_records_total"] < float64(len(tr)) {
		t.Errorf("sim_records_total = %v, want >= %d", s["sim_records_total"], len(tr))
	}
	if s["sim_predicts_total"] == 0 || s["sim_block_count"] == 0 {
		t.Errorf("counters did not move: %v", s)
	}
	if len(res[0].Tables) == 0 {
		t.Fatalf("no table snapshot on Result with telemetry enabled")
	}
	st := res[0].Tables[0]
	if st.Inserts == 0 || st.Capacity != 64 {
		t.Errorf("table snapshot: %+v", st)
	}
}

// TestResultTablesNilWhenDisabled pins that the table snapshot is a
// telemetry-only extension: with the registry disabled, Results stay exactly
// as before (batch-vs-sequential equivalence tests compare them with
// reflect.DeepEqual).
func TestResultTablesNilWhenDisabled(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000}, 100)
	p := core.MustTwoLevel(core.Config{PathLength: 2, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "assoc2", Entries: 64})
	res, err := RunBatchEach(context.Background(), []core.Predictor{p}, tr, []Options{{}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Tables != nil {
		t.Errorf("Tables = %+v with telemetry disabled, want nil", res[0].Tables)
	}
}

// TestTableStatsDeltaAcrossReuse pins the reused-predictor semantics: a
// second batched run on the same (Reset) predictor must report only that
// run's inserts, not the cumulative total since construction.
func TestTableStatsDeltaAcrossReuse(t *testing.T) {
	telemetry.Enable(nil)
	defer telemetry.Disable()
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 200)
	p := core.MustTwoLevel(core.Config{PathLength: 2, Precision: core.AutoPrecision,
		Scheme: bits.Reverse, TableKind: "assoc2", Entries: 64})
	first, err := RunBatchEach(context.Background(), []core.Predictor{p}, tr, []Options{{}})
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	second, err := RunBatchEach(context.Background(), []core.Predictor{p}, tr, []Options{{}})
	if err != nil {
		t.Fatal(err)
	}
	f, s := first[0].Tables[0], second[0].Tables[0]
	if s.Inserts == 0 || s.Inserts > 2*f.Inserts {
		t.Errorf("reused-predictor delta looks cumulative: first %+v, second %+v", f, s)
	}
	if s.Resets != 0 {
		// The Reset happened between runs, before the second baseline.
		t.Errorf("second run charged with the inter-run reset: %+v", s)
	}
}
