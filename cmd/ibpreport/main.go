// Command ibpreport renders mispredict-attribution reports from the
// per-prediction event layer: for any benchmark × predictor cell of the
// sweep grid it captures the full event stream, classifies every miss
// (cold / conflict / alias / meta), and reports the top mispredicting
// branch sites with their polymorphism degree and transition entropy — the
// "why does this cell miss" companion to ibpsim's "how much does it miss".
//
// It also converts a sweep's run manifest into a Chrome trace-event file
// (load it in Perfetto or chrome://tracing) showing the sweep's experiment
// timeline and telemetry counters, and fuses flight-recorder dumps from
// ibpload, ibprouter, and ibpserved into one cross-process frame timeline.
//
// Examples:
//
//	ibpreport -bench perl -p 3 -table assoc4 -entries 1024
//	ibpreport -bench gcc -hybrid 3,1 -table assoc4 -entries 4096 -format json
//	ibpreport -bench xlisp -format csv -o xlisp.csv
//	ibpreport -chrome results/sweep/.sweep-manifest.json -o sweep.trace.json
//	ibpreport -flight router.json,backend.json,load.json -o frames.trace.json
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/oocsb/ibp/internal/analysis"
	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/experiment"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/workload"
)

type options struct {
	bench  string
	n      int
	warmup int

	pf cli.PredictorFlags

	top     int
	sample  int
	ring    int
	format  string
	out     string
	chrome  string
	flights string
}

func main() {
	var o options
	flag.StringVar(&o.bench, "bench", "", "benchmark name (required unless -chrome)")
	flag.IntVar(&o.n, "n", workload.DefaultBranches, "indirect branches to generate")
	flag.IntVar(&o.warmup, "warmup", 0, "indirect branches excluded from accounting")
	o.pf.Register(flag.CommandLine)
	flag.IntVar(&o.top, "top", 10, "number of branch sites to report")
	flag.IntVar(&o.sample, "sample", 1, "record every Nth event (1 = all; classes degrade when sampling)")
	flag.IntVar(&o.ring, "ring", 0, "event ring capacity (0 = size to the whole trace)")
	flag.StringVar(&o.format, "format", "text", "output format: text, json, csv")
	flag.StringVar(&o.out, "o", "", "output file (default stdout)")
	flag.StringVar(&o.chrome, "chrome", "", "convert a .sweep-manifest.json into a Chrome trace-event file instead")
	flag.StringVar(&o.flights, "flight", "", "fuse comma-separated flight-recorder dumps (/debug/flightrecorder JSON) into a Chrome trace-event timeline instead")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "ibpreport:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	w := io.Writer(os.Stdout)
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if o.chrome != "" {
		return writeChromeTrace(w, o.chrome)
	}
	if o.flights != "" {
		return writeFlightTrace(w, o.flights)
	}
	if o.bench == "" {
		return fmt.Errorf("need -bench (or -chrome, or -flight)")
	}
	rep, err := buildReport(o)
	if err != nil {
		return err
	}
	switch o.format {
	case "text":
		return renderText(w, rep)
	case "json":
		return renderJSON(w, rep)
	case "csv":
		return renderCSV(w, rep)
	}
	return fmt.Errorf("unknown format %q (want text, json, csv)", o.format)
}

// Report is the attribution report for one benchmark × predictor cell; the
// JSON rendering marshals it directly.
type Report struct {
	Benchmark   string `json:"benchmark"`
	Predictor   string `json:"predictor"`
	TraceLen    int    `json:"trace_len"`
	Warmup      int    `json:"warmup"`
	SampleEvery int    `json:"sample_every"`
	// Events counts captured events; Complete reports whether they cover
	// every dynamic indirect branch (no sampling, no ring overwrite) —
	// when false, miss classes are a lower-bound estimate.
	Events   int  `json:"events"`
	Complete bool `json:"complete"`

	Executed int     `json:"executed"`
	Misses   int     `json:"misses"`
	MissPct  float64 `json:"miss_pct"`
	// ByClass counts misses per class ("cold", "conflict", "alias",
	// "meta"); classes with zero misses are present with value 0.
	ByClass map[string]int `json:"miss_classes"`
	// Branches are the top mispredicting sites, worst first.
	Branches []BranchRow `json:"branches"`
}

// BranchRow is one branch site in the report.
type BranchRow struct {
	PC       string  `json:"pc"`
	Executed int     `json:"executed"`
	Misses   int     `json:"misses"`
	MissPct  float64 `json:"miss_pct"`
	Targets  int     `json:"targets"`
	Entropy  float64 `json:"transition_entropy"`
	Cold     int     `json:"cold"`
	Conflict int     `json:"conflict"`
	Alias    int     `json:"alias"`
	Meta     int     `json:"meta"`
}

func buildReport(o options) (*Report, error) {
	bench, err := workload.ByName(o.bench)
	if err != nil {
		return nil, err
	}
	if err := o.pf.CheckBuild(); err != nil {
		return nil, err
	}
	probe, err := o.pf.Build()
	if err != nil {
		return nil, err
	}
	ring := o.ring
	if ring <= 0 {
		ring = o.n
	}
	sink := ptrace.NewEventSink(ring, o.sample)
	ectx := experiment.NewContext(o.n)
	spec := experiment.SweepSpec{
		Mk:   func() (core.Predictor, error) { return o.pf.Build() },
		Opts: sim.Options{Warmup: o.warmup},
	}
	res, err := ectx.RunEvents(bench, spec, sink)
	if err != nil {
		return nil, err
	}
	attr := analysis.Attribute(sink.Events())

	rep := &Report{
		Benchmark:   bench.Name,
		Predictor:   probe.Name(),
		TraceLen:    o.n,
		Warmup:      o.warmup,
		SampleEvery: sink.SampleEvery(),
		Events:      sink.Len(),
		Complete:    sink.Complete(),
		Executed:    res.Executed,
		Misses:      res.Misses,
		MissPct:     res.MissRate(),
		ByClass:     make(map[string]int, 4),
	}
	for _, c := range analysis.MissClasses() {
		rep.ByClass[c] = attr.ByClass[c]
	}
	for _, b := range attr.Top(o.top) {
		rep.Branches = append(rep.Branches, BranchRow{
			PC:       fmt.Sprintf("%08x", b.PC),
			Executed: b.Executed,
			Misses:   b.Misses,
			MissPct:  100 * b.MissRate(),
			Targets:  b.Targets,
			Entropy:  b.TransitionEntropy,
			Cold:     b.ByClass[analysis.MissCold],
			Conflict: b.ByClass[analysis.MissConflict],
			Alias:    b.ByClass[analysis.MissAlias],
			Meta:     b.ByClass[analysis.MissMeta],
		})
	}
	return rep, nil
}

func renderText(w io.Writer, r *Report) error {
	fmt.Fprintf(w, "benchmark: %s\npredictor: %s\n", r.Benchmark, r.Predictor)
	fmt.Fprintf(w, "trace: %d branches, %d warmup\n", r.TraceLen, r.Warmup)
	coverage := "complete"
	if !r.Complete {
		coverage = fmt.Sprintf("partial (sample every %d); classes are lower bounds", r.SampleEvery)
	}
	fmt.Fprintf(w, "events: %d (%s)\n\n", r.Events, coverage)
	fmt.Fprintf(w, "executed %d, missed %d (%.2f%%)\n", r.Executed, r.Misses, r.MissPct)
	fmt.Fprintf(w, "miss classes: cold %d, conflict %d, alias %d, meta %d\n\n",
		r.ByClass[analysis.MissCold], r.ByClass[analysis.MissConflict],
		r.ByClass[analysis.MissAlias], r.ByClass[analysis.MissMeta])
	fmt.Fprintf(w, "top %d mispredicting branches:\n", len(r.Branches))
	fmt.Fprintf(w, "%-10s %9s %8s %7s %8s %8s %6s %8s %6s %5s\n",
		"pc", "executed", "misses", "miss%", "targets", "entropy", "cold", "conflict", "alias", "meta")
	for _, b := range r.Branches {
		fmt.Fprintf(w, "%-10s %9d %8d %7.2f %8d %8.3f %6d %8d %6d %5d\n",
			b.PC, b.Executed, b.Misses, b.MissPct, b.Targets, b.Entropy,
			b.Cold, b.Conflict, b.Alias, b.Meta)
	}
	return nil
}

func renderJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func renderCSV(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pc", "executed", "misses", "miss_pct",
		"targets", "transition_entropy", "cold", "conflict", "alias", "meta"}); err != nil {
		return err
	}
	for _, b := range r.Branches {
		rec := []string{
			b.PC,
			strconv.Itoa(b.Executed),
			strconv.Itoa(b.Misses),
			strconv.FormatFloat(b.MissPct, 'f', 2, 64),
			strconv.Itoa(b.Targets),
			strconv.FormatFloat(b.Entropy, 'f', 3, 64),
			strconv.Itoa(b.Cold),
			strconv.Itoa(b.Conflict),
			strconv.Itoa(b.Alias),
			strconv.Itoa(b.Meta),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
