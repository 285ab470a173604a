// Command ibpsim simulates a single indirect-branch predictor configuration
// over benchmarks of the suite (or a trace file) and reports misprediction
// rates, the core interactive tool of the reproduction.
//
// Examples:
//
//	ibpsim -bench all -pred btb-2bc
//	ibpsim -bench gcc -p 3 -table assoc4 -entries 1024
//	ibpsim -bench all -hybrid 3,1 -table assoc4 -entries 4096
//	ibpsim -trace gcc.trace -p 6 -table tagless -entries 8192
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/stats"
	"github.com/oocsb/ibp/internal/table"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

type options struct {
	bench     string
	traceFile string
	n         int
	warmup    int

	pf cli.PredictorFlags

	shadow   bool
	sites    bool
	top      int
	stats    bool
	logLevel string
}

func main() {
	var o options
	flag.StringVar(&o.bench, "bench", "all", "benchmark name or \"all\"")
	flag.StringVar(&o.traceFile, "trace", "", "read a trace file instead of generating a benchmark")
	flag.IntVar(&o.n, "n", workload.DefaultBranches, "indirect branches per generated benchmark")
	flag.IntVar(&o.warmup, "warmup", 0, "indirect branches excluded from accounting")
	o.pf.Register(flag.CommandLine)
	flag.BoolVar(&o.shadow, "shadow", false, "attribute capacity/conflict misses with an unbounded twin")
	flag.BoolVar(&o.sites, "sites", false, "report the worst-predicted branch sites")
	flag.IntVar(&o.top, "top", 5, "number of sites to report with -sites")
	flag.BoolVar(&o.stats, "stats", false, "report per-run table occupancy/eviction counters after each benchmark")
	flag.StringVar(&o.logLevel, "log", "warn", "structured log level: debug, info, warn, error, off")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "ibpsim:", err)
		os.Exit(1)
	}
}

// readTraceFile decodes a trace file, wrapping every failure — including
// corruption detected by the checksummed v2 format — with the offending
// path.
func readTraceFile(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

func realMain(o options) error {
	level, err := telemetry.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	log := telemetry.NewLogger(os.Stderr, level)
	if err := o.pf.CheckBuild(); err != nil {
		return err
	}
	if o.stats {
		// Table snapshots on Results come from the telemetry layer.
		telemetry.Enable(nil)
	}
	var runs []struct {
		name string
		tr   trace.Trace
	}
	switch {
	case o.traceFile != "":
		tr, err := readTraceFile(o.traceFile)
		if err != nil {
			return err
		}
		runs = append(runs, struct {
			name string
			tr   trace.Trace
		}{o.traceFile, tr})
	case o.bench == "all":
		for _, cfg := range workload.Suite() {
			runs = append(runs, struct {
				name string
				tr   trace.Trace
			}{cfg.Name, cfg.MustGenerate(o.n)})
		}
	default:
		cfg, err := workload.ByName(o.bench)
		if err != nil {
			return err
		}
		runs = append(runs, struct {
			name string
			tr   trace.Trace
		}{cfg.Name, cfg.MustGenerate(o.n)})
	}

	probe, err := o.pf.Build()
	if err != nil {
		return err
	}
	log.Debug("simulating", "predictor", probe.Name(), "runs", len(runs), "n", o.n, "warmup", o.warmup)
	fmt.Printf("predictor: %s\n\n", probe.Name())
	fmt.Printf("%-10s %10s %10s %10s %10s\n", "benchmark", "branches", "misses", "miss%", "capacity%")
	rates := make(map[string]float64)
	for _, r := range runs {
		p, err := o.pf.Build()
		if err != nil {
			return err
		}
		opts := sim.Options{Warmup: o.warmup, Sites: o.sites}
		if o.shadow {
			shadow, err := o.pf.Unbounded().Build()
			if err != nil {
				return err
			}
			opts.Shadow = shadow
		}
		res := sim.Run(p, r.tr, opts)
		rates[r.name] = res.MissRate()
		log.Info("benchmark done", "bench", r.name, "executed", res.Executed, "missRate", res.MissRate())
		fmt.Printf("%-10s %10d %10d %10.2f %10.2f\n",
			r.name, res.Executed, res.Misses, res.MissRate(), res.CapacityRate())
		if o.stats && len(res.Tables) > 0 {
			printTableStats(res.Tables)
		}
		if o.sites {
			printWorstSites(res, o.top)
		}
	}
	if len(runs) > 1 {
		fmt.Println()
		ext := stats.WithGroups(rates)
		for _, g := range stats.GroupNames() {
			if v, ok := ext[g]; ok {
				fmt.Printf("%-10s %32s %10.2f\n", g, "", v)
			}
		}
	}
	return nil
}

// printTableStats merges the run's table snapshots per kind and prints one
// line per kind in sorted key order, so output is byte-stable across runs
// however the predictor orders its component tables.
func printTableStats(sts []table.Stats) {
	byKind := make(map[string][]table.Stats)
	for _, st := range sts {
		byKind[st.Kind] = append(byKind[st.Kind], st)
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := table.Merge(byKind[k])
		fmt.Printf("    tables[%s]: cap=%d occ=%.2f inserts=%d evictions=%d resets=%d\n",
			k, st.Capacity, st.Occupancy, st.Inserts, st.Evictions, st.Resets)
	}
}

func printWorstSites(res sim.Result, top int) {
	type siteRow struct {
		pc uint32
		st *sim.SiteStats
	}
	rows := make([]siteRow, 0, len(res.PerSite))
	for pc, st := range res.PerSite {
		rows = append(rows, siteRow{pc, st})
	}
	// Misses descending, PC ascending on ties: map iteration order must not
	// leak into which equal-miss sites make the cut or how they print.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].st.Misses != rows[j].st.Misses {
			return rows[i].st.Misses > rows[j].st.Misses
		}
		return rows[i].pc < rows[j].pc
	})
	if top > len(rows) {
		top = len(rows)
	}
	for _, r := range rows[:top] {
		fmt.Printf("    site %08x: %d/%d misses (%.1f%%)\n",
			r.pc, r.st.Misses, r.st.Executed, 100*float64(r.st.Misses)/float64(r.st.Executed))
	}
}
