package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"github.com/oocsb/ibp/internal/experiment"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/stats"
	"github.com/oocsb/ibp/internal/telemetry"
)

// sweepBranches is the sweep workload's trace length in indirect branches
// per benchmark: one pass over the five experiments then takes a few
// seconds, so a run measures several passes.
const sweepBranches = 2_000

// golden holds the SHA-256 of every sweep table's CSV at sweepBranches for
// seeds 1-3, recorded with -writegolden.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Branches int                          `json:"branches"`
	Seeds    map[string]map[string]string `json:"seeds"`
}

// sweepPass is one pass over the experiments.
type sweepPass struct {
	ops     []time.Duration // run time per experiment, in sweepExperiments order
	execs   []uint64        // branches simulated per experiment, summed over lanes
	digests map[string]string
	failed  int
	proc    procSample
}

// newSweepContext generates the suite's traces (the expensive, cached part
// of a sweep) and warms the engine up with the cheapest experiment.
func newSweepContext(o options) (*experiment.Context, error) {
	cfgs, err := suite(nil, o.seed)
	if err != nil {
		return nil, err
	}
	ctx := experiment.NewContext(o.scaled(sweepBranches, 100))
	ctx.Suite = cfgs
	for _, cfg := range cfgs {
		ctx.Trace(cfg)
	}
	warm, err := experiment.ByID("ext-ittage")
	if err != nil {
		return nil, err
	}
	if _, err := warm.Run(ctx); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ctx.TakeFailures()
	return ctx, nil
}

// runPass runs every sweep experiment once and digests its tables.
func runPass(ctx *experiment.Context) (sweepPass, error) {
	p := sweepPass{digests: make(map[string]string)}
	p0 := sampleProc()
	for _, id := range sweepExperiments {
		e, err := experiment.ByID(id)
		if err != nil {
			return p, err
		}
		exec0 := ctx.Progress().Executed
		start := time.Now()
		tables, err := e.Run(ctx)
		p.ops = append(p.ops, time.Since(start))
		p.execs = append(p.execs, ctx.Progress().Executed-exec0)
		if err != nil || len(ctx.TakeFailures()) > 0 {
			p.failed++
		}
		for i, t := range tables {
			d, err := digest(t)
			if err != nil {
				return p, err
			}
			p.digests[fmt.Sprintf("%s/%d", id, i)] = d
		}
	}
	p.proc = sampleProc().sub(p0)
	return p, nil
}

// steadyPass summarizes several passes as one: each experiment's run time
// at steadyQuantile over the passes (with fewer than ten passes, the
// fastest). It returns those times and the rate of simulated branches over
// their sum.
func steadyPass(ps []sweepPass) (times []time.Duration, branchesPerS float64) {
	var total time.Duration
	var executed uint64
	for i := range sweepExperiments {
		var ts []time.Duration
		for _, p := range ps {
			ts = append(ts, p.ops[i])
		}
		t := quantile(ts, 1-steadyQuantile)
		times = append(times, t)
		total += t
		executed += ps[0].execs[i] // the same in every pass
	}
	return times, ratio(float64(executed), total.Seconds())
}

// digest is the hex SHA-256 of a table's CSV rendering.
func digest(t *stats.Table) (string, error) {
	var b bytes.Buffer
	if err := t.WriteCSV(&b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// runSweep runs the sweep workload: passes over the five experiments until
// the measured time has passed. Traced, it alternates passes with telemetry
// off and on.
func runSweep(o options) (*report, error) {
	rep := newReport("sweep")
	var ctx *experiment.Context
	setup, err := repeatSetup(o, func() (time.Duration, error) {
		ctx = nil
		runtime.GC() // outside the timed set-up: each one starts from a clean heap
		begin := time.Now()
		var err error
		if ctx, err = newSweepContext(o); err != nil {
			return 0, err
		}
		return time.Since(begin), nil
	})
	if err != nil {
		return nil, err
	}

	var untraced, traced []sweepPass
	heap := watchHeap()
	blocks := 1
	if o.traced {
		blocks = 4
	}
	for b := 0; b < blocks; b++ {
		on := b%2 == 1
		if on {
			telemetry.Enable(telemetry.New())
		}
		deadline := time.Now().Add(time.Duration(o.seconds / float64(blocks) * float64(time.Second)))
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			p, err := runPass(ctx)
			if err != nil {
				telemetry.Disable()
				return nil, err
			}
			if on {
				traced = append(traced, p)
			} else {
				untraced = append(untraced, p)
			}
		}
		telemetry.Disable()
	}
	peakHeap := heap.peakMiB()

	all := append(slices.Clone(untraced), traced...)
	for _, p := range all {
		rep.attempted += len(p.ops)
		rep.failed += p.failed
		if !maps.Equal(p.digests, all[0].digests) {
			rep.problem("sweep tables differ between passes of one run")
		}
	}
	if rep.failed > 0 {
		rep.problem("%d experiment runs failed or degraded cells", rep.failed)
	}
	checkGolden(rep, o, all[0].digests)

	times, plain := steadyPass(untraced)
	if !o.traced {
		rep.values["records_per_s"] = plain
		rep.values["op_p50_ms"] = ms(quantile(slices.Clone(times), 0.50))
		rep.values["op_p90_ms"] = ms(quantile(slices.Clone(times), 0.90))
		rep.values["peak_heap_mib"] = peakHeap
		rep.values["setup_s"] = setup
		rep.note("phase %d passes of %d experiments", len(untraced), len(sweepExperiments))
		return rep, nil
	}

	for _, m := range perLayer {
		rep.values[m.name] = 0
	}
	var proc procSample
	var executed uint64
	for _, p := range untraced {
		proc = proc.add(p.proc)
		for _, x := range p.execs {
			executed += x
		}
	}
	for i, id := range sweepExperiments {
		rep.values["experiment."+id+"_s"] = times[i].Seconds()
	}
	rep.values["experiment.branches_per_s"] = plain
	if err := coreLayers(rep, o); err != nil {
		return nil, err
	}
	// The sim kernel with the default predictor over the sweep's traces:
	// the one rung of the sweep's ladder.
	pf := defaultPredictor()
	var simTime time.Duration
	records := 0
	for _, cfg := range ctx.Suite {
		tr := ctx.Trace(cfg)
		p, err := pf.Build()
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		sim.Run(p, tr, sim.Options{})
		simTime += time.Since(begin)
		records += len(tr)
	}
	simNS := ratio(float64(simTime), float64(records))
	rep.values["sim.run_ns_per_record"] = simNS
	goLayers(rep, proc, int(executed))
	rep.values["go.layer_residual_ns_per_record"] = rep.values["go.cpu_ns_per_record"] - simNS

	_, on := steadyPass(traced)
	rep.values["flight.overhead_pct"] = 100 * ratio(plain-on, plain)
	rep.note("%d untraced and %d telemetry-on passes", len(untraced), len(traced))
	return rep, nil
}

// checkGolden compares a pass's table digests with the recorded ones; a
// seed or trace length without a recording is reported as unverified.
func checkGolden(rep *report, o options, got map[string]string) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		rep.problem("golden.json: %v", err)
		return
	}
	want, ok := g.Seeds[strconv.FormatInt(o.seed, 10)]
	if !ok || g.Branches != o.scaled(sweepBranches, 100) {
		rep.note("sweep check: unverified (no recorded digests for seed %d at %d branches)", o.seed, o.scaled(sweepBranches, 100))
		return
	}
	bad := diffDigests(want, got)
	for _, b := range bad {
		rep.problem("sweep table %s", b)
	}
	if len(bad) == 0 {
		rep.note("sweep check: %d tables match golden.json", len(want))
	}
}

// diffDigests describes every table whose digest differs from want, or is
// missing from either side.
func diffDigests(want, got map[string]string) []string {
	var out []string
	for _, k := range slices.Sorted(maps.Keys(want)) {
		switch g, ok := got[k]; {
		case !ok:
			out = append(out, k+": missing")
		case g != want[k]:
			out = append(out, fmt.Sprintf("%s: digest %s, want %s", k, g, want[k]))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if _, ok := want[k]; !ok {
			out = append(out, k+": not in golden.json")
		}
	}
	return out
}

// writeGoldenFile records the sweep digests for seeds 1-3 at the full
// trace length.
func writeGoldenFile(path string, o options) error {
	g := goldenFile{Branches: o.scaled(sweepBranches, 100), Seeds: make(map[string]map[string]string)}
	for seed := int64(1); seed <= 3; seed++ {
		o.seed = seed
		ctx, err := newSweepContext(o)
		if err != nil {
			return err
		}
		p, err := runPass(ctx)
		if err != nil {
			return err
		}
		if p.failed > 0 {
			return fmt.Errorf("seed %d: %d experiment runs failed", seed, p.failed)
		}
		g.Seeds[strconv.FormatInt(seed, 10)] = p.digests
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
