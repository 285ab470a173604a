// Sweep progress accounting: lock-free counters the front end polls to
// render a live cells-done/total line with ETA and rolling miss rate, and
// that feed the telemetry registry's sweep_* metrics.
package experiment

import (
	"sync/atomic"
	"time"

	"github.com/oocsb/ibp/internal/telemetry"
)

// progress is the Context's cumulative sweep accounting. Counters only grow
// (cells from successive sweeps of one run accumulate), so a snapshot taken
// at any moment is internally consistent enough for display.
type progress struct {
	startNanos  atomic.Int64 // wall clock of the first queued cell, 0 before
	cellsTotal  atomic.Int64
	cellsDone   atomic.Int64 // includes degraded cells: they consumed their slot
	cellsFailed atomic.Int64 // degraded cell/lane failures recorded
	executed    atomic.Uint64
	misses      atomic.Uint64
}

// begin marks the queueing of n more cells, stamping the start time on the
// first call.
func (p *progress) begin(n int, now time.Time) {
	p.startNanos.CompareAndSwap(0, now.UnixNano())
	p.cellsTotal.Add(int64(n))
}

// ProgressSnapshot is a point-in-time reading of a run's sweep progress.
// Cells are (benchmark × configuration-chunk) work units of the batched
// sweeps; hand-rolled experiment loops don't contribute, so the totals cover
// the grid sweeps that dominate a full run.
type ProgressSnapshot struct {
	// CellsTotal is the number of cells queued so far (it grows as
	// successive experiments start their sweeps).
	CellsTotal int
	// CellsDone is the number of cells finished, including degraded ones.
	CellsDone int
	// CellsFailed counts degraded cell and lane failures recorded.
	CellsFailed int
	// Executed and Misses accumulate over every completed cell's lanes,
	// giving the rolling misprediction rate of the run so far.
	Executed, Misses uint64
	// Elapsed is the wall time since the first cell was queued (0 before).
	Elapsed time.Duration
}

// MissRate returns the rolling misprediction rate in percent.
func (s ProgressSnapshot) MissRate() float64 {
	if s.Executed == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(s.Executed)
}

// ETA extrapolates the remaining wall time from the done/elapsed rate;
// zero until at least one cell has finished.
func (s ProgressSnapshot) ETA() time.Duration {
	if s.CellsDone == 0 || s.CellsTotal <= s.CellsDone {
		return 0
	}
	perCell := s.Elapsed / time.Duration(s.CellsDone)
	return perCell * time.Duration(s.CellsTotal-s.CellsDone)
}

// Progress returns the run's cumulative sweep progress. It is safe to call
// concurrently with running sweeps — the counters are atomics — and cheap
// enough to poll a few times per second.
func (c *Context) Progress() ProgressSnapshot {
	s := ProgressSnapshot{
		CellsTotal:  int(c.prog.cellsTotal.Load()),
		CellsDone:   int(c.prog.cellsDone.Load()),
		CellsFailed: int(c.prog.cellsFailed.Load()),
		Executed:    c.prog.executed.Load(),
		Misses:      c.prog.misses.Load(),
	}
	if start := c.prog.startNanos.Load(); start != 0 {
		s.Elapsed = time.Since(time.Unix(0, start))
	}
	return s
}

// sweepMetrics is the per-sweep set of registry handles (nil handles when
// telemetry is disabled; all uses are nil-safe).
type sweepMetrics struct {
	queued    *telemetry.Counter
	done      *telemetry.Counter
	failed    *telemetry.Counter
	running   *telemetry.Gauge
	cellTime  *telemetry.Histogram
	laneHits  *telemetry.Counter
	laneMiss  *telemetry.Counter
	traceHits *telemetry.Counter
	traceMiss *telemetry.Counter
	tracePan  *telemetry.Counter
}

func newSweepMetrics(r *telemetry.Registry) sweepMetrics {
	if r == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		queued:    r.Counter("sweep_cells_queued_total"),
		done:      r.Counter("sweep_cells_done_total"),
		failed:    r.Counter("sweep_cells_failed_total"),
		running:   r.Gauge("sweep_cells_running"),
		cellTime:  r.Histogram("sweep_cell"),
		laneHits:  r.Counter("sweep_lane_cache_hits_total"),
		laneMiss:  r.Counter("sweep_lane_cache_misses_total"),
		traceHits: r.Counter("trace_cache_hits_total"),
		traceMiss: r.Counter("trace_cache_misses_total"),
		tracePan:  r.Counter("trace_gen_panics_total"),
	}
}
