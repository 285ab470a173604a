package experiment

import (
	"fmt"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/workload"
)

// RunEvents runs one benchmark × predictor cell with per-prediction event
// capture attached: the sweep-cell equivalent that ibpreport uses to rebuild
// any grid cell with full attribution. The benchmark trace comes from the
// context's single-flight cache, so a report over a cell that a sweep in the
// same process already visited pays no second generation.
//
// The sink belongs to this run alone (see sim.Options.Events); pass a fresh
// one per call. Unlike the batched sweeps, a cell failure here is returned,
// not degraded — a report over a broken cell should say so.
func (c *Context) RunEvents(bench workload.Config, spec SweepSpec, sink *ptrace.EventSink) (sim.Result, error) {
	if err := spec.check(); err != nil {
		return sim.Result{}, err
	}
	p, shadow, err := spec.build(core.NewTwoLevel)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiment: %s predictor: %w", bench.Name, err)
	}
	opts := spec.Opts
	opts.Events = sink
	opts.Shadow = shadow
	tr := c.Trace(bench)
	res, err := sim.RunBatchEach(c.ctx, []core.Predictor{p}, tr, []sim.Options{opts})
	if err != nil {
		return sim.Result{}, err
	}
	return res[0], nil
}
