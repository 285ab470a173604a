// Package experiment reproduces every table and figure of the paper's
// evaluation. Each experiment is a registered runner that simulates the
// relevant predictor configurations over the 17-benchmark suite and returns
// paper-style result tables; cmd/ibpsweep is the front end.
package experiment

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/stats"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// Context carries the shared parameters of an experiment run and caches the
// generated benchmark traces (the expensive part) across experiments.
type Context struct {
	// TraceLen is the number of indirect branches per benchmark; the
	// paper uses up to 6M, the default here is workload.DefaultBranches.
	TraceLen int
	// Suite is the benchmark set (default: the paper's 17 benchmarks).
	Suite []workload.Config

	ctx context.Context // cancellation for the whole run; never nil

	prog progress // cumulative sweep progress (atomics; see Progress)

	mu       sync.Mutex
	traces   map[string]*traceEntry // single-flight indirect traces + summaries
	fulls    map[string]*traceEntry // single-flight full traces
	appx     appendix               // memoized Table A-1 computation
	failures []CellError            // degraded per-cell failures since the last Take
}

// NewContext returns a context over the full suite. traceLen <= 0 selects
// the default length.
func NewContext(traceLen int) *Context {
	if traceLen <= 0 {
		traceLen = workload.DefaultBranches
	}
	return &Context{
		TraceLen: traceLen,
		Suite:    workload.Suite(),
		ctx:      context.Background(),
		traces:   make(map[string]*traceEntry),
		fulls:    make(map[string]*traceEntry),
	}
}

// WithContext attaches a cancellation context to the run and returns c.
// Sweeps and cancellation-aware experiments stop early (returning ctx's
// error) once it is done.
func (c *Context) WithContext(ctx context.Context) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
	return c
}

// Err returns the cancellation error once the run's context is done, nil
// before that. Experiments with hand-rolled benchmark loops call this at
// iteration boundaries.
func (c *Context) Err() error { return c.ctx.Err() }

// CellError records one benchmark cell that failed and was degraded to an
// error row instead of aborting the sweep.
type CellError struct {
	// Bench is the benchmark (suite cell) that failed.
	Bench string
	// Err is the failure, with panics converted to errors.
	Err error
}

func (e CellError) Error() string { return fmt.Sprintf("%s: %v", e.Bench, e.Err) }

// recordFailure remembers a degraded cell.
func (c *Context) recordFailure(bench string, err error) {
	c.prog.cellsFailed.Add(1)
	telemetry.Default().Counter("sweep_cells_failed_total").Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, CellError{Bench: bench, Err: err})
}

// TakeFailures returns the degraded cell failures accumulated since the
// previous call and clears the list; the front end reports them alongside
// the (partial) result tables. The order is deterministic — sorted by
// benchmark, then by error text — regardless of the worker interleaving
// that recorded them, so error rows, journal entries, and logs are stable
// across runs.
func (c *Context) TakeFailures() []CellError {
	c.mu.Lock()
	out := c.failures
	c.failures = nil
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Err.Error() < out[j].Err.Error()
	})
	return out
}

// traceEntry is one single-flight cache slot: the sync.Once guarantees a
// benchmark's trace is generated exactly once even when many sweep cells
// request it concurrently (the cache previously dropped its lock around the
// expensive generation, so concurrent cells generated duplicate traces). A
// panic during generation is captured and re-raised in every caller, so each
// requesting cell degrades individually through its own panic isolation
// instead of the once poisoning silently.
type traceEntry struct {
	once     sync.Once
	tr       trace.Trace
	sum      trace.Summary
	panicVal any
}

// entry returns (creating on demand) the cache slot for a benchmark in m.
func (c *Context) entry(m map[string]*traceEntry, name string) *traceEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := m[name]
	if e == nil {
		e = &traceEntry{}
		m[name] = e
	}
	return e
}

// traceDone accounts one trace-cache access: generated distinguishes the
// single caller whose Do closure actually ran from the callers served by the
// cache, and a captured generation panic is counted before being re-raised.
func traceDone(e *traceEntry, generated bool) {
	r := telemetry.Default()
	if generated {
		r.Counter("trace_cache_misses_total").Inc()
	} else {
		r.Counter("trace_cache_hits_total").Inc()
	}
	if e.panicVal != nil {
		r.Counter("trace_gen_panics_total").Inc()
		panic(e.panicVal)
	}
}

// Trace returns the cached indirect-branch-only trace for a benchmark
// (sufficient for every predictor except conditional-history consumers; use
// FullTrace for those). Generation is single-flight across goroutines.
func (c *Context) Trace(cfg workload.Config) trace.Trace {
	e := c.entry(c.traces, cfg.Name)
	generated := false
	e.once.Do(func() {
		generated = true
		defer func() { e.panicVal = recover() }()
		full := cfg.MustGenerate(c.TraceLen)
		e.sum = trace.Summarize(full)
		e.tr = full.Indirect()
	})
	traceDone(e, generated)
	return e.tr
}

// FullTrace returns the cached complete trace (conditionals, returns) for a
// benchmark, generating it single-flight on first use.
func (c *Context) FullTrace(cfg workload.Config) trace.Trace {
	e := c.entry(c.fulls, cfg.Name)
	generated := false
	e.once.Do(func() {
		generated = true
		defer func() { e.panicVal = recover() }()
		e.tr = cfg.MustGenerate(c.TraceLen)
	})
	traceDone(e, generated)
	return e.tr
}

// Summary returns the Tables 1–2 statistics of the benchmark's full trace.
func (c *Context) Summary(cfg workload.Config) trace.Summary {
	c.Trace(cfg) // ensure generated
	return c.entry(c.traces, cfg.Name).sum
}

// protect runs fn(i), converting a panic into an error carrying the stack,
// so one misbehaving cell cannot take down the whole sweep process.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// forEach runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// and returns the first error. Panics in fn are recovered into errors, and
// dispatch stops at the first recorded failure (or context cancellation) —
// cells already in flight finish, no new ones start.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		done     = make(chan struct{})
		stopOnce sync.Once
		mu       sync.Mutex
		firstErr error
	)
	fail := func(e error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		mu.Unlock()
		stopOnce.Do(func() { close(done) })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if e := protect(i, fn); e != nil {
					fail(e)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// Non-blocking check first: a recorded failure must win over an
		// available worker, otherwise the select below could keep picking
		// the send case at random after the failure.
		select {
		case <-done:
			break dispatch
		case <-ctx.Done():
			fail(ctx.Err())
			break dispatch
		default:
		}
		select {
		case <-done:
			break dispatch
		case <-ctx.Done():
			fail(ctx.Err())
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}

// SweepSpec describes one predictor lane of a batched sweep: a two-level
// lane by its tables' configurations (Tables, and Shadow), any other
// predictor by a factory (Mk). Set exactly one of Tables and Mk.
type SweepSpec struct {
	// Tables are the configurations of a two-level lane's tables: one is a
	// core.TwoLevel, several are a core.Hybrid over them in tie-break
	// order, no two alike. A cell builds one TwoLevel per distinct
	// Config.Defaults() and hands that instance to every keyed lane that
	// uses it, as its predictor, a hybrid component or its shadow, so
	// sim.RunBatchEach steps it once per branch.
	Tables []core.Config
	// Shadow, with Tables, is the configuration of the lane's unbounded
	// shadow twin for capacity-miss attribution; nil for none.
	Shadow *core.Config
	// Mk constructs the predictor of a lane that Tables cannot describe;
	// it must return a fresh instance per call.
	Mk func() (core.Predictor, error)
	// Opts are the lane's simulation options. Opts.Shadow must be nil
	// (a shadow comes from Shadow).
	Opts sim.Options
}

// tableSpec describes a lane by its tables' configurations.
func tableSpec(cfgs ...core.Config) SweepSpec { return SweepSpec{Tables: cfgs} }

// dualPath describes core.NewDualPath(p1, p2, kind, entries) as a lane.
func dualPath(p1, p2 int, kind string, entries int) SweepSpec {
	return tableSpec(core.DualPathConfig(p1, kind, entries), core.DualPathConfig(p2, kind, entries))
}

// check reports a spec that no cell can build.
func (s SweepSpec) check() error {
	switch {
	case s.Opts.Shadow != nil:
		return errors.New("experiment: SweepSpec.Opts.Shadow must be nil; use Shadow")
	case (s.Mk == nil) == (len(s.Tables) == 0):
		return errors.New("experiment: a SweepSpec needs exactly one of Tables and Mk")
	case s.Mk != nil && s.Shadow != nil:
		return errors.New("experiment: SweepSpec.Shadow needs Tables")
	}
	for i, cfg := range s.Tables {
		for _, prev := range s.Tables[:i] {
			if prev.Defaults() == cfg.Defaults() {
				return fmt.Errorf("experiment: SweepSpec.Tables repeats %s", cfg.Name())
			}
		}
	}
	return nil
}

// keyed reports whether the lane runs keyed in sim.RunBatchEach, and so
// shares its tables with the other keyed lanes of its cell.
func (s SweepSpec) keyed() bool {
	if s.Mk != nil || !s.Opts.Keyable() {
		return false
	}
	for _, cfg := range s.tables() {
		if !cfg.Keyed() {
			return false
		}
	}
	return true
}

// tables returns the configurations of the lane's tables, its shadow's
// included.
func (s SweepSpec) tables() []core.Config {
	if s.Shadow == nil {
		return s.Tables
	}
	return append(slices.Clip(s.Tables), *s.Shadow)
}

// private is how many tables a cell builds for this lane alone: a lane
// built by Mk counts as one, a keyed lane as none.
func (s SweepSpec) private() int {
	switch {
	case s.Mk != nil:
		return 1
	case s.keyed():
		return 0
	}
	return len(s.tables())
}

// build constructs the lane's predictor and shadow, taking each table from
// table.
func (s SweepSpec) build(table func(core.Config) (*core.TwoLevel, error)) (p, shadow core.Predictor, err error) {
	if s.Mk != nil {
		p, err = s.Mk()
		return p, nil, err
	}
	comps := make([]core.Component, len(s.Tables))
	for i, cfg := range s.Tables {
		if comps[i], err = table(cfg); err != nil {
			return nil, nil, err
		}
	}
	if len(comps) == 1 {
		p = comps[0]
	} else if p, err = core.NewHybrid(comps...); err != nil {
		return nil, nil, err
	}
	if s.Shadow != nil {
		if shadow, err = table(*s.Shadow); err != nil {
			return nil, nil, err
		}
	}
	return p, shadow, nil
}

// cellTables is how many distinct tables a sweep cell steps at most, unless
// one lane alone reads more; a lane built by Mk counts as one table. It
// bounds a cell's tables and tapes, and keeps a grid in enough cells per
// benchmark to spread over the workers.
const cellTables = 16

// planCells cuts the specs into cells, each one panic-isolated trace pass
// per benchmark, and returns each cell's spec indices. A sharing group is
// the keyed lanes closed under reading the same table configuration, with
// the tables they read; every other lane is a group of its own. Groups are
// packed whole in history-spec order (lanes built by Mk last, in the
// caller's order), up to cellTables tables per cell. A larger group is cut
// lane by lane, and each of its cells builds the tables its lanes read.
func planCells(specs []SweepSpec) [][]int {
	// Union the keyed lanes that read a common table.
	root := make([]int, len(specs))
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	reader := make(map[core.Config]int)
	for i, s := range specs {
		if !s.keyed() {
			continue
		}
		for _, cfg := range s.tables() {
			if j, ok := reader[cfg.Defaults()]; ok {
				root[find(i)] = find(j)
			} else {
				reader[cfg.Defaults()] = i
			}
		}
	}

	// shared holds the shared tables of the cell being packed, or of a
	// group being sized; adds counts the tables lane i adds to it.
	shared := make(map[core.Config]bool)
	adds := func(i int) int {
		s, n := specs[i], specs[i].private()
		if s.keyed() {
			for _, cfg := range s.tables() {
				if !shared[cfg.Defaults()] {
					shared[cfg.Defaults()] = true
					n++
				}
			}
		}
		return n
	}
	type group struct {
		lanes  []int
		size   int          // the tables its lanes read
		spec   history.Spec // the least history spec among them
		tables bool         // false for a lane built by Mk
	}
	var groups []*group
	byRoot := make(map[int]*group)
	for i, s := range specs {
		g := byRoot[find(i)]
		if g == nil {
			g = &group{}
			byRoot[find(i)] = g
			groups = append(groups, g)
		}
		g.lanes = append(g.lanes, i)
		for _, cfg := range s.tables() {
			if h := cfg.HistorySpec(); !g.tables || compareSpecs(h, g.spec) < 0 {
				g.spec, g.tables = h, true
			}
		}
	}
	for _, g := range groups {
		clear(shared)
		for _, i := range g.lanes {
			g.size += adds(i)
		}
	}
	slices.SortStableFunc(groups, func(a, b *group) int {
		switch {
		case a.tables && b.tables:
			return compareSpecs(a.spec, b.spec)
		case a.tables:
			return -1
		case b.tables:
			return 1
		}
		return 0
	})

	var cells [][]int
	var cell []int
	size := 0
	clear(shared)
	flush := func() {
		if len(cell) > 0 {
			cells, cell, size = append(cells, cell), nil, 0
			clear(shared)
		}
	}
	for _, g := range groups {
		if size+g.size > cellTables {
			flush()
		}
		for _, i := range g.lanes {
			// Only a group larger than a cell gets here with a full
			// cell, and the lane then starts the next one.
			if n := adds(i); size+n <= cellTables || len(cell) == 0 {
				size += n
			} else {
				flush()
				size = adds(i)
			}
			cell = append(cell, i)
		}
	}
	flush()
	return cells
}

// compareSpecs orders history specs for planCells.
func compareSpecs(x, y history.Spec) int {
	return cmp.Or(
		cmp.Compare(x.PathLength, y.PathLength),
		cmp.Compare(x.Bits, y.Bits),
		cmp.Compare(x.StartBit, y.StartBit),
		cmp.Compare(x.Scheme, y.Scheme),
		cmp.Compare(x.Op, y.Op),
	)
}

// laneCache keeps one worker's predictors alive between the cells of one
// plan cell: consecutive cells differ only in the benchmark, so resetting
// the tables (bit-identical to fresh construction — tables reset by
// generation bump, histories clear) avoids reallocating hundreds of
// megabytes of tables across a grid sweep. The cache is dropped whenever a
// lane misbehaves, since a panic can leave a predictor mid-mutation where
// Reset's invariants no longer hold.
type laneCache struct {
	cell        int
	valid       bool
	ps, shadows []core.Predictor
	// resets holds every stateful instance once: each table, shared or
	// not, and each predictor built by Mk. nil when one of them is not a
	// core.Resetter, and the cache never hits.
	resets []core.Resetter
}

// lanes returns the predictors (and shadows) of the plan cell's lanes,
// reusing the cached set via Reset when possible.
func (lc *laneCache) lanes(cell int, specs []SweepSpec, lanes []int, sm sweepMetrics) (ps, shadows []core.Predictor, err error) {
	if lc.valid && lc.resets != nil && lc.cell == cell {
		sm.laneHits.Inc()
		for _, r := range lc.resets {
			r.Reset()
		}
		return lc.ps, lc.shadows, nil
	}
	sm.laneMiss.Inc()
	lc.valid = false
	ps = make([]core.Predictor, len(lanes))
	shadows = make([]core.Predictor, len(lanes))
	var resets []core.Resetter
	resettable := true
	fresh := func(cfg core.Config) (*core.TwoLevel, error) {
		t, err := core.NewTwoLevel(cfg)
		if err == nil {
			resets = append(resets, t)
		}
		return t, err
	}
	tables := make(map[core.Config]*core.TwoLevel)
	shared := func(cfg core.Config) (*core.TwoLevel, error) {
		if t := tables[cfg.Defaults()]; t != nil {
			return t, nil
		}
		t, err := fresh(cfg)
		if err == nil {
			tables[cfg.Defaults()] = t
		}
		return t, err
	}
	for k, i := range lanes {
		s := specs[i]
		table := fresh
		if s.keyed() {
			table = shared
		}
		if ps[k], shadows[k], err = s.build(table); err != nil {
			return nil, nil, err
		}
		if s.Mk != nil {
			r, ok := ps[k].(core.Resetter)
			resettable = resettable && ok
			resets = append(resets, r)
		}
	}
	if !resettable {
		resets = nil
	}
	lc.cell, lc.ps, lc.shadows, lc.resets, lc.valid = cell, ps, shadows, resets, true
	return ps, shadows, nil
}

// SweepSpecs runs every spec over every benchmark and returns
// res[spec][benchmark]. planCells cuts the specs into cells; each
// (benchmark × cell) pair is one panic-isolated unit of the worker pool,
// inside which sim.RunBatchEach drives the cell's lanes over the
// benchmark's trace in a single pass, stepping each shared table once per
// branch. full selects complete traces (conditional records included)
// instead of indirect-only ones.
//
// Failure handling follows Sweep's contract: an invalid spec and predictor
// construction errors abort the sweep; a failing cell (trace generation, a
// panicking lane) degrades to recorded CellErrors while the other cells and
// lanes still produce results; cancellation aborts.
func (c *Context) SweepSpecs(specs []SweepSpec, full bool) ([]map[string]sim.Result, error) {
	out := make([]map[string]sim.Result, len(specs))
	for i, s := range specs {
		if err := s.check(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		out[i] = make(map[string]sim.Result, len(c.Suite))
	}
	if len(specs) == 0 {
		return out, nil
	}
	nb := len(c.Suite)
	cells := planCells(specs)
	sm := newSweepMetrics(telemetry.Default())
	c.prog.begin(nb*len(cells), time.Now())
	sm.queued.Add(uint64(nb * len(cells)))
	var mu sync.Mutex
	pool := sync.Pool{New: func() any { return &laneCache{} }}
	// Work items are ordered cell-major so a worker's consecutive items
	// share a cell and its laneCache keeps hitting.
	err := forEach(c.ctx, nb*len(cells), func(ci int) error {
		cell, bench := ci/nb, c.Suite[ci%nb]
		lanes := cells[cell]
		cache := pool.Get().(*laneCache)
		defer pool.Put(cache)
		sm.running.Add(1)
		cellStart := time.Now()
		defer func() {
			sm.running.Add(-1)
			sm.cellTime.Observe(time.Since(cellStart))
			sm.done.Inc()
			c.prog.cellsDone.Add(1)
		}()
		// Construction errors are deterministic configuration mistakes:
		// every cell would fail identically, so they abort the sweep
		// rather than degrade.
		ps, shadows, err := cache.lanes(cell, specs, lanes, sm)
		if err != nil {
			return fmt.Errorf("%s: %w", bench.Name, err)
		}
		// The per-cell work (trace generation + simulation) is isolated:
		// a panic or error here degrades to recorded error rows so the
		// other cells still produce results. Within the cell, sim's own
		// lane isolation keeps one misbehaving configuration from taking
		// down the rest. Cancellation stays fatal.
		cellErr := protect(ci, func(int) error {
			var tr trace.Trace
			if full {
				tr = c.FullTrace(bench)
			} else {
				tr = c.Trace(bench)
			}
			lopts := make([]sim.Options, len(lanes))
			for k, i := range lanes {
				lopts[k] = specs[i].Opts
				lopts[k].Shadow = shadows[k]
			}
			rs, err := sim.RunBatchEach(c.ctx, ps, tr, lopts)
			var be *sim.BatchError
			if err != nil && (!errors.As(err, &be) || c.ctx.Err() != nil) {
				return err
			}
			dead := map[int]bool{}
			if be != nil {
				cache.valid = false // panicked lanes may violate Reset invariants
				for _, le := range be.Lanes {
					dead[le.Lane] = true
					c.recordFailure(bench.Name, fmt.Errorf("config %d: %w", lanes[le.Lane], le.Err))
				}
			}
			var executed, missed uint64
			mu.Lock()
			for k, r := range rs {
				if !dead[k] {
					out[lanes[k]][bench.Name] = r
					executed += uint64(r.Executed)
					missed += uint64(r.Misses)
				}
			}
			mu.Unlock()
			c.prog.executed.Add(executed)
			c.prog.misses.Add(missed)
			return nil
		})
		if cellErr != nil {
			cache.valid = false
			if errors.Is(cellErr, context.Canceled) || errors.Is(cellErr, context.DeadlineExceeded) {
				return cellErr
			}
			c.recordFailure(bench.Name, cellErr)
		}
		return nil
	})
	return out, err
}

// rateMaps reduces SweepSpecs results to per-benchmark misprediction rates.
func rateMaps(res []map[string]sim.Result) []map[string]float64 {
	out := make([]map[string]float64, len(res))
	for i, m := range res {
		out[i] = make(map[string]float64, len(m))
		for bench, r := range m {
			out[i][bench] = r.MissRate()
		}
	}
	return out
}

// SweepBatch runs SweepSpecs over indirect-only traces and returns
// per-benchmark misprediction rates in percent for each spec. It is the grid
// form of Sweep.
func (c *Context) SweepBatch(specs []SweepSpec) ([]map[string]float64, error) {
	res, err := c.SweepSpecs(specs, false)
	return rateMaps(res), err
}

// SweepBatchFull is SweepBatch over complete traces (conditional records
// included), for predictors implementing core.CondObserver.
func (c *Context) SweepBatchFull(specs []SweepSpec) ([]map[string]float64, error) {
	res, err := c.SweepSpecs(specs, true)
	return rateMaps(res), err
}

// SweepConfigs is SweepBatch over one two-level table per configuration.
func (c *Context) SweepConfigs(cfgs []core.Config) ([]map[string]float64, error) {
	return c.SweepBatch(configSpecs(cfgs))
}

// SweepConfigsFull is SweepConfigs over complete traces (conditional records
// included).
func (c *Context) SweepConfigsFull(cfgs []core.Config) ([]map[string]float64, error) {
	return c.SweepBatchFull(configSpecs(cfgs))
}

func configSpecs(cfgs []core.Config) []SweepSpec {
	specs := make([]SweepSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = tableSpec(cfg)
	}
	return specs
}

// Sweep simulates one predictor per benchmark (constructed by mk, which must
// return a fresh predictor per call) and returns per-benchmark misprediction
// rates in percent.
func (c *Context) Sweep(mk func() (core.Predictor, error)) (map[string]float64, error) {
	rates, err := c.SweepBatch([]SweepSpec{{Mk: mk}})
	return rates[0], err
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the short name used by cmd/ibpsweep and bench targets.
	ID string
	// Artifact names the paper table/figure, e.g. "Figure 9".
	Artifact string
	// Desc is a one-line description.
	Desc string
	// Run produces the experiment's result tables.
	Run func(ctx *Context) ([]*stats.Table, error)
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

// register adds an experiment; called from init functions of this package.
func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, e)
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q", id)
}

// groupRows lists the group labels shown as rows in the unconstrained
// figures, AVG first as the headline.
var groupRows = []string{
	stats.GroupAVG, stats.GroupOO, stats.GroupC,
	stats.Group100, stats.Group200, stats.GroupInfreq,
}

// setGroups writes a column of group averages into a table.
func setGroups(t *stats.Table, col string, perBench map[string]float64) {
	ext := stats.WithGroups(perBench)
	for _, g := range groupRows {
		if v, ok := ext[g]; ok {
			t.Set(g, col, v)
		}
	}
}
