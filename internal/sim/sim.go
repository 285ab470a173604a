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
// per configuration, and for each distinct two-level table once however
// many lanes read it. Run/RunContext are the single-lane form.
package sim

import (
	"context"
	"errors"
	"fmt"
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
	// correctly is counted as a capacity/conflict miss. It trains on
	// every branch of the lane's run, so only keyed lanes may share one
	// (see RunBatchEach).
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
	// other predictors produce events with sim-visible fields only. A
	// sink belongs to exactly one lane — it is not safe for concurrent
	// use, so sharing one across lanes is rejected.
	Events *ptrace.EventSink
}

// Keyable reports whether a lane with these options can run keyed: it asks
// for nothing only Kernel.Run provides — an event sink, per-site stats or
// flushes.
func (o Options) Keyable() bool { return o.Events == nil && !o.Sites && o.FlushEvery <= 0 }

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
	block     *telemetry.Histogram // wall time per block, tapes and every lane
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
	// keyed, when set, accounts the lane from shared tapes in place of
	// k.Run; k still holds the lane's warmup and accounting.
	keyed *keyedLane
	dead  bool
	err   error
	// statser and baseStats (the predictor's table counters at run start)
	// let the per-Result snapshot report this run's deltas even when the
	// predictor is a reused (Reset) instance. Only set when telemetry is on.
	statser   core.TableStatser
	baseStats []table.Stats
}

func (l *lane) init(p core.Predictor, opts Options, kl *keyedLane, m *runMetrics) {
	l.k, l.keyed = NewKernel(p, opts), kl
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
	l.k.Run(block)
}

// batch is the state of one RunBatchEach call: its lanes, the tapes its
// keyed lanes read, and the telemetry handles (nil when disabled).
type batch struct {
	lanes []lane
	tapes *tapeSet
	m     *runMetrics
	live  int // lanes not dead
}

// newBatch sets up a call over ps and a trace of n records.
func newBatch(ps []core.Predictor, opts []Options, n int, m *runMetrics) (*batch, error) {
	tapes, keyed, err := shareTables(ps, opts, n)
	if err != nil {
		return nil, err
	}
	b := &batch{lanes: make([]lane, len(ps)), tapes: tapes, m: m, live: len(ps)}
	for i := range b.lanes {
		b.lanes[i].init(ps[i], opts[i], keyed[i], m)
	}
	return b, nil
}

// step advances every live lane over one block: run by run, the tapes are
// filled once and each keyed lane accounts from them, then each other lane
// runs its kernel over the block. With telemetry on it publishes the
// block's counter deltas summed over the lanes: one histogram observation
// and four atomic adds per 8192-record block, so enabled telemetry never
// touches the per-record path.
func (b *batch) step(block []trace.Record) {
	var start time.Time
	if b.m != nil {
		start = time.Now()
	}
	live0, seen0, misses0 := b.totals()
	b.tapes.load(block)
	for lo := 0; lo < len(b.tapes.targets); {
		n := b.tapes.fill(lo)
		for i := range b.lanes {
			if l := &b.lanes[i]; l.keyed != nil && !l.dead {
				if err := l.keyed.run(l.k, n); err != nil {
					l.dead, l.err = true, err
				}
			}
		}
		lo += n
	}
	for i := range b.lanes {
		if l := &b.lanes[i]; l.keyed == nil && !l.dead {
			l.runBlock(block)
		}
	}
	live, seen, misses := b.totals()
	b.live = live
	if b.m != nil {
		b.m.block.Observe(time.Since(start))
		b.m.records.Add(uint64(live0 * len(block)))
		b.m.predicts.Add(uint64(seen - seen0))
		b.m.misses.Add(uint64(misses - misses0))
		b.m.panics.Add(uint64(live0 - live))
	}
}

// totals returns how many lanes are live, and the branches all lanes have
// predicted and missed so far.
func (b *batch) totals() (live, seen, misses int) {
	for i := range b.lanes {
		l := &b.lanes[i]
		if !l.dead {
			live++
		}
		seen += l.k.seen
		misses += l.k.res.Misses
	}
	return live, seen, misses
}

// blockSize is how many trace records a lane processes per protected block;
// the context is polled once per block. A power of two matching the old
// single-lane cancellation stride keeps partial results at cancellation
// identical to the previous engine.
const blockSize = 1 << 13

// RunBatchEach simulates each predictor — with its own Options — over the
// trace in a single pass.
//
// A lane whose predictor and shadow are core.Keyed now, and whose options
// are Keyable, runs keyed. Keyed lanes share both levels: each distinct
// (history spec, starting register contents) is keyed once per branch, and
// each distinct table instance is stepped once per branch however many
// keyed lanes read it — as their predictor, a hybrid component or their
// shadow. Each lane's Result is the one its predictor would give alone
// through Kernel.Run, as if every reference to a table were a private copy
// of it. A shared table ends the call in the state one Kernel.Run over it
// would leave, and the key tapes' histories are written back into the
// tables' registers when the call returns.
//
// Every other lane runs Kernel.Run and must not share mutable state: a
// predictor, shadow, table or event sink that such a lane uses and another
// lane also uses is rejected, since the interleaved updates would corrupt
// it.
//
// A panic inside one lane's predictor kills that lane only, and a panic in a
// shared table kills exactly the lanes that read it: their partial Results
// must be discarded, and each failure is reported as a LaneError (wrapping
// *PanicError) inside a *BatchError. Lanes absent from the BatchError
// completed normally and their Results are valid.
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
	m := newRunMetrics(telemetry.Default())
	b, err := newBatch(ps, opts, len(tr), m)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	var cancel error
blocks:
	for base := 0; base < len(tr) && b.live > 0; base += blockSize {
		if done != nil {
			select {
			case <-done:
				cancel = ctx.Err()
				break blocks
			default:
			}
		}
		b.step(tr[base:min(base+blockSize, len(tr))])
	}
	b.tapes.writeBack()
	return collect(b.lanes, cancel, m)
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
