// Package sim drives predictors over branch traces and accounts for
// mispredictions the way the paper does: every dynamic indirect branch is
// predicted then resolved; a missing prediction counts as a misprediction;
// returns are excluded (they belong to the return address stack); and an
// optional unbounded shadow twin attributes misses to capacity/conflict
// effects (§5.1).
//
// The engine is batched: RunBatchEach drives any number of predictors
// ("lanes") over one trace in a single pass, sharing the record decode and
// cancellation checks and isolating each lane's panics, so a sweep over a
// configuration grid pays for the trace once per benchmark instead of once
// per configuration. Run/RunContext are the single-lane form.
package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/table"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// Options controls a simulation run.
type Options struct {
	// Warmup is the number of leading indirect branches excluded from the
	// accounting (they still train the predictor). The paper skips
	// initialization phases of two benchmarks the same way (§2).
	Warmup int
	// Shadow, when non-nil, is an unbounded predictor with the same key
	// function as the subject; a subject miss that the shadow predicts
	// correctly is counted as a capacity/conflict miss. A Shadow instance
	// belongs to exactly one lane: it trains on every branch of that
	// lane's run, so sharing one across lanes would corrupt it, and
	// RunBatchEach rejects that.
	Shadow core.Predictor
	// Sites enables per-site accounting (used for benchmark analysis).
	Sites bool
	// FlushEvery clears all predictor state every N indirect branches,
	// modelling context switches that lose the predictor's contents
	// (cf. [ECP96]). 0 disables flushing. Requires a predictor
	// implementing core.Resetter; others are left untouched.
	FlushEvery int
	// Events, when non-nil, receives one ptrace.Event per dynamic indirect
	// branch (warmup included, sampling and ring bounds applied by the
	// sink). Predictors implementing core.Attributor have attribution
	// recording switched on for the run, enriching events with the history
	// pattern, table hit/evict detail, and the hybrid component chosen;
	// other predictors produce events with sim-visible fields only. Like a
	// Shadow, a sink belongs to exactly one lane — it is not safe for
	// concurrent use, so sharing one across lanes is rejected.
	Events *ptrace.EventSink
}

// SiteStats is the per-branch-site accounting collected when Options.Sites
// is set.
type SiteStats struct {
	Executed int
	Misses   int
}

// Result summarizes one simulation.
type Result struct {
	// Executed is the number of indirect branches counted (after warmup).
	Executed int
	// Misses is the number of mispredictions (wrong target or no
	// prediction).
	Misses int
	// NoPrediction is the subset of Misses where the predictor produced
	// no target at all.
	NoPrediction int
	// CapacityMisses is the subset of Misses the unbounded shadow twin
	// predicted correctly (only populated when a shadow was supplied).
	CapacityMisses int
	// Warmup is the number of indirect branches excluded from accounting.
	Warmup int
	// PerSite holds per-site counts when requested.
	PerSite map[uint32]*SiteStats
	// Tables summarizes the predictor's target tables over this run
	// (occupancy at completion; insert/eviction/reset deltas attributed to
	// this run even on a reused predictor instance). Populated only when
	// telemetry is enabled (telemetry.Default() non-nil) and the predictor
	// implements core.TableStatser; nil otherwise.
	Tables []table.Stats
}

// MissRate returns the misprediction rate in percent.
func (r Result) MissRate() float64 {
	if r.Executed == 0 {
		return 0
	}
	return 100 * float64(r.Misses) / float64(r.Executed)
}

// CapacityRate returns the capacity/conflict misprediction rate in percent.
func (r Result) CapacityRate() float64 {
	if r.Executed == 0 {
		return 0
	}
	return 100 * float64(r.CapacityMisses) / float64(r.Executed)
}

// String renders the result as a one-line report.
func (r Result) String() string {
	s := fmt.Sprintf("%.2f%% misses (%d/%d, %d no-prediction)",
		r.MissRate(), r.Misses, r.Executed, r.NoPrediction)
	if r.CapacityMisses > 0 {
		s += fmt.Sprintf(", %.2f%% capacity", r.CapacityRate())
	}
	return s
}

// PanicError wraps a panic recovered from one predictor lane of a batched
// run. The lane is dead from that point on (its partial Result must not be
// used); the other lanes are unaffected.
type PanicError struct {
	// Val is the original panic value.
	Val any
	// Stack is the stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("predictor panicked: %v\n%s", e.Val, e.Stack)
}

// LaneError attributes a failure to one lane of a batched run.
type LaneError struct {
	// Lane indexes the predictor in the RunBatchEach call.
	Lane int
	// Err is the lane's failure (a *PanicError for recovered panics).
	Err error
}

func (e LaneError) Error() string { return fmt.Sprintf("lane %d: %v", e.Lane, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e LaneError) Unwrap() error { return e.Err }

// BatchError aggregates the per-lane failures of a batched run. Lanes not
// listed completed normally and their Results are valid: a misbehaving
// predictor degrades its own lane, not the whole pass.
type BatchError struct {
	Lanes []LaneError
}

func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %d of batch lanes failed", len(e.Lanes))
	for _, le := range e.Lanes {
		fmt.Fprintf(&b, "; %v", le)
	}
	return b.String()
}

// Unwrap exposes the lane errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Lanes))
	for i, le := range e.Lanes {
		out[i] = le
	}
	return out
}

// runMetrics is the set of hot-loop telemetry handles resolved once per
// batched run. A nil *runMetrics means telemetry is disabled and the engine
// takes the uninstrumented path.
type runMetrics struct {
	records   *telemetry.Counter   // trace records scanned, summed over lanes
	predicts  *telemetry.Counter   // indirect branches predicted (incl. warmup)
	misses    *telemetry.Counter   // mispredictions
	panics    *telemetry.Counter   // lanes killed by a predictor panic
	evictions *telemetry.Counter   // table entries displaced (per-run deltas)
	resets    *telemetry.Counter   // whole-table resets (per-run deltas)
	occupancy *telemetry.Gauge     // last observed end-of-run table occupancy
	block     *telemetry.Histogram // wall time per lane-block
}

// newRunMetrics resolves the handles against r, or returns nil when
// telemetry is disabled.
func newRunMetrics(r *telemetry.Registry) *runMetrics {
	if r == nil {
		return nil
	}
	return &runMetrics{
		records:   r.Counter("sim_records_total"),
		predicts:  r.Counter("sim_predicts_total"),
		misses:    r.Counter("sim_misses_total"),
		panics:    r.Counter("sim_lane_panics_total"),
		evictions: r.Counter("sim_table_evictions_total"),
		resets:    r.Counter("sim_table_resets_total"),
		occupancy: r.Gauge("sim_table_occupancy"),
		block:     r.Histogram("sim_block"),
	}
}

// lane is the per-predictor state of a batched run: a Kernel plus the
// lane's panic isolation and per-run table telemetry.
type lane struct {
	k *Kernel
	// keyed, when set, runs the lane's tables over shared key tapes in
	// place of k.Run; k still holds the lane's warmup and accounting.
	keyed *keyedLane
	dead  bool
	err   error
	// statser and baseStats (the predictor's table counters at run start)
	// let the per-Result snapshot report this run's deltas even when the
	// predictor is a reused (Reset) instance. Only set when telemetry is on.
	statser   core.TableStatser
	baseStats []table.Stats
}

func (l *lane) init(p core.Predictor, opts Options, m *runMetrics) {
	l.k = NewKernel(p, opts)
	if m != nil {
		if l.statser, _ = p.(core.TableStatser); l.statser != nil {
			l.baseStats = l.statser.TableStats()
		}
	}
}

// finishStats attaches the lane's per-run table snapshot to its Result and
// publishes the deltas to the registry. Dead lanes are skipped (their tables
// may be mid-mutation).
func (l *lane) finishStats(m *runMetrics) {
	if m == nil || l.statser == nil || l.dead {
		return
	}
	cur := l.statser.TableStats()
	if len(cur) != len(l.baseStats) {
		return // table topology changed under us; don't misattribute
	}
	for i := range cur {
		cur[i] = cur[i].Sub(l.baseStats[i])
		m.evictions.Add(cur[i].Evictions)
		m.resets.Add(cur[i].Resets)
	}
	l.k.res.Tables = cur
	m.occupancy.Set(table.Merge(cur).Occupancy)
}

// step advances the lane over one block and publishes the block's counter
// deltas: one histogram observation and three atomic adds per 8192-record block,
// so enabled telemetry never touches the per-record path.
func (l *lane) step(block []trace.Record, m *runMetrics) {
	if m == nil {
		l.runBlock(block)
		return
	}
	start := time.Now()
	seen0, miss0 := l.k.seen, l.k.res.Misses
	l.runBlock(block)
	m.block.Observe(time.Since(start))
	m.records.Add(uint64(len(block)))
	m.predicts.Add(uint64(l.k.seen - seen0))
	m.misses.Add(uint64(l.k.res.Misses - miss0))
	if l.dead {
		m.panics.Inc()
	}
}

// runBlock runs the lane's kernel over one block of trace records, converting
// a predictor panic into a dead lane carrying a *PanicError — one deferred
// frame per lane-block instead of per record keeps isolation off the
// per-branch path.
func (l *lane) runBlock(block []trace.Record) {
	defer func() {
		if r := recover(); r != nil {
			l.dead = true
			l.err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	if l.keyed != nil {
		l.keyed.run(l.k)
		return
	}
	l.k.Run(block)
}

// blockSize is how many trace records a lane processes per protected block;
// the context is polled once per block. A power of two matching the old
// single-lane cancellation stride keeps partial results at cancellation
// identical to the previous engine.
const blockSize = 1 << 13

// RunBatchEach simulates each predictor — with its own Options — over the
// trace in a single pass. Lanes are independent: predictors (and their
// shadows) must not share mutable state, or the interleaved updates of one
// lane would corrupt another. A predictor, shadow or event sink passed in
// two places is rejected.
//
// Lanes whose predictor and shadow are core.Keyed, with no event sink,
// per-site stats or flushes, share the first level: each distinct (history
// spec, starting register contents) is keyed once per block, and those
// lanes step only their tables. Their histories are written back when the
// call returns, so every predictor ends in the state Kernel.Run would have
// left, and every Result is the same.
//
// A panic inside one lane's predictor kills that lane only: its partial
// Result must be discarded, and the failure is reported as a LaneError
// (wrapping *PanicError) inside a *BatchError. Lanes absent from the
// BatchError completed normally and their Results are valid.
//
// Cancellation is checked between blocks of records; once ctx is done the
// partial results accumulated so far are returned with an error satisfying
// errors.Is(err, ctx.Err()). Partial results are internally consistent (all
// counters describe the records actually simulated) but must not be mistaken
// for full-trace measurements.
func RunBatchEach(ctx context.Context, ps []core.Predictor, tr trace.Trace, opts []Options) ([]Result, error) {
	if len(opts) != len(ps) {
		return nil, fmt.Errorf("sim: %d predictors but %d option sets", len(ps), len(opts))
	}
	if err := checkUnshared(ps, opts); err != nil {
		return nil, err
	}
	m := newRunMetrics(telemetry.Default())
	lanes := make([]lane, len(ps))
	for i := range lanes {
		lanes[i].init(ps[i], opts[i], m)
	}
	tapes := keyLanes(lanes, ps, opts, min(len(tr), blockSize))
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	live := len(lanes)
	var cancel error
blocks:
	for base := 0; base < len(tr) && live > 0; base += blockSize {
		if done != nil {
			select {
			case <-done:
				cancel = ctx.Err()
				break blocks
			default:
			}
		}
		block := tr[base:min(base+blockSize, len(tr))]
		tapes.fill(block)
		for i := range lanes {
			if l := &lanes[i]; !l.dead {
				l.step(block, m)
				if l.dead {
					live--
				}
			}
		}
	}
	tapes.writeBack()
	return collect(lanes, cancel, m)
}

// checkUnshared rejects mutable state that two lanes would share: one
// predictor instance in two places (as lane predictors, shadows, or both)
// or one Events sink on two lanes. Interleaved updates would corrupt it,
// and a keyed lane's history write-back would overwrite it.
func checkUnshared(ps []core.Predictor, opts []Options) error {
	owner := make(map[any]int)
	claim := func(x any, lane int, what string) error {
		// Instances are compared by identity. A value whose type cannot
		// be compared is skipped: every predictor here is a pointer.
		if x == nil || !reflect.TypeOf(x).Comparable() {
			return nil
		}
		if j, dup := owner[x]; dup {
			return fmt.Errorf("sim: lanes %d and %d share one %s; each serves exactly one lane", j, lane, what)
		}
		owner[x] = lane
		return nil
	}
	for i, o := range opts {
		if err := claim(ps[i], i, "predictor instance"); err != nil {
			return err
		}
		if o.Shadow != nil {
			if err := claim(o.Shadow, i, "predictor instance (Options.Shadow)"); err != nil {
				return err
			}
		}
		if o.Events != nil {
			if err := claim(o.Events, i, "Options.Events sink"); err != nil {
				return err
			}
		}
	}
	return nil
}

// collect gathers per-lane results and folds lane failures (and an optional
// cancellation error) into the returned error.
func collect(lanes []lane, cancel error, m *runMetrics) ([]Result, error) {
	results := make([]Result, len(lanes))
	var failed []LaneError
	for i := range lanes {
		lanes[i].finishStats(m)
		results[i] = lanes[i].k.res
		if lanes[i].err != nil {
			failed = append(failed, LaneError{Lane: i, Err: lanes[i].err})
		}
	}
	var err error
	if failed != nil {
		err = &BatchError{Lanes: failed}
	}
	switch {
	case cancel == nil:
	case err == nil:
		err = cancel // keep the identity of ctx.Err() when it is the only failure
	default:
		err = errors.Join(cancel, err)
	}
	return results, err
}

// Run simulates the predictor over the trace. Conditional-branch records are
// delivered to predictors implementing core.CondObserver; return records are
// skipped (see the ras package).
func Run(p core.Predictor, tr trace.Trace, opts Options) Result {
	res, _ := RunContext(context.Background(), p, tr, opts)
	return res
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few thousand records and, once it is done, the partial Result
// accumulated so far is returned together with ctx.Err(). It is the
// single-lane form of RunBatchEach and keeps the historical contract that a
// predictor panic propagates to the caller.
func RunContext(ctx context.Context, p core.Predictor, tr trace.Trace, opts Options) (Result, error) {
	rs, err := RunBatchEach(ctx, []core.Predictor{p}, tr, []Options{opts})
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			panic(pe.Val)
		}
		return rs[0], err
	}
	return rs[0], nil
}

// MissRate is a convenience wrapper: simulate and return the misprediction
// percentage with default options.
func MissRate(p core.Predictor, tr trace.Trace) float64 {
	return Run(p, tr, Options{}).MissRate()
}
