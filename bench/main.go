// Command bench is the repository benchmark. It runs four workloads in one
// process against the module's own packages — the batched sweep engine, the
// TCP prediction service, and the failover router with the online tuner —
// checks every output against a reference, and prints every metric as
// "workload metric value unit", then one JSON document as the last line.
//
//	go run . [-workload sweep,stream,churn,routed] [-seed N] [-seconds S] [-trace 0|1|DIR]
//	go run . -compare A_DIR B_DIR
//	go run . -writegolden golden.json
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1, or -trace DIR to also write flight-recorder dumps into DIR)
// prints the per-layer metrics. Any failed check makes the command exit 1.
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/workload"
)

// workloadNames are the benchmark's workloads in their default run order.
var workloadNames = []string{"sweep", "stream", "churn", "routed"}

// procs is the GOMAXPROCS every workload runs with. One P makes the
// throughput of the whole in-process stack (clients, servers, router) a
// measure of its total CPU cost per record, and keeps the wall-clock
// metrics steady on a small shared host, where a second vCPU that comes
// and goes moved every two-P metric by 10-30% between runs. The price is
// that a change that only adds parallelism does not show here.
const procs = 1

// options is one benchmark invocation.
type options struct {
	workloads []string
	seed      int64
	seconds   float64
	traced    bool
	dumpDir   string // flight-recorder dump directory; "" writes none
	// scale multiplies every trace length and session count; 1 except in
	// the smoke test, which runs every workload at a tiny scale.
	scale float64
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		list        string
		traceArg    string
		compare     bool
		writeGolden string
		o           = options{scale: 1}
	)
	fs.StringVar(&list, "workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	fs.StringVar(&list, "workloads", strings.Join(workloadNames, ","), "alias of -workload")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: shifts every benchmark's generator seed by seed-1")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per workload; whole rotations run until it has passed")
	fs.StringVar(&traceArg, "trace", "0", "0 for end-to-end metrics; 1 for per-layer metrics; a directory for per-layer metrics plus flight-recorder dumps")
	fs.BoolVar(&compare, "compare", false, "compare two directories of saved runs: -compare A_DIR B_DIR")
	fs.StringVar(&writeGolden, "writegolden", "", "record the sweep table digests for seeds 1-3 into this file and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	err := func() error {
		switch {
		case compare:
			if fs.NArg() != 2 {
				return errors.New("-compare needs two directories")
			}
			return runCompare(os.Stdout, fs.Arg(0), fs.Arg(1))
		case writeGolden != "":
			return writeGoldenFile(writeGolden, o)
		}
		o.workloads = strings.Split(list, ",")
		o.traced, o.dumpDir = parseTrace(traceArg)
		ok, err := run(o, os.Stdout)
		if err == nil && !ok {
			err = errors.New("output checks failed")
		}
		return err
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// parseTrace interprets -trace: "0" is untraced, "1" traced without dumps,
// anything else traced with dumps into that directory.
func parseTrace(arg string) (traced bool, dir string) {
	switch arg {
	case "0", "":
		return false, ""
	case "1":
		return true, ""
	}
	return true, arg
}

// report is one workload's outcome: its metric values, the operations it
// attempted and lost, and the checks that failed.
type report struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newReport(name string) *report {
	return &report{workload: name, values: make(map[string]float64)}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run executes the selected workloads and prints their metrics and the JSON
// document. It reports whether every check passed.
func run(o options, w io.Writer) (bool, error) {
	if err := cli.ValidateSeed(o.seed); err != nil {
		return false, err
	}
	if o.seconds < 0 {
		return false, errors.New("-seconds must not be negative")
	}
	for _, name := range o.workloads {
		if !slices.Contains(workloadNames, name) {
			return false, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
		}
	}
	if o.dumpDir != "" {
		if err := os.MkdirAll(o.dumpDir, 0o755); err != nil {
			return false, err
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	pf := defaultPredictor()
	var reps []*report
	for _, name := range o.workloads {
		var (
			rep *report
			err error
		)
		if name == "sweep" {
			rep, err = runSweep(o)
		} else {
			rep, err = runServing(servingSpecs[name], o, pf)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.print(w, o.traced); err != nil {
			return false, err
		}
		reps = append(reps, rep)
	}
	return printJSON(w, reps, o.traced)
}

// print writes the report's notes and failed checks as "#" lines, then one
// "workload metric value unit" line per metric.
func (r *report) print(w io.Writer, traced bool) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# %s check failed: %s\n", r.workload, p)
	}
	for _, m := range metricsFor(traced) {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, m.name, v)
		}
		if _, err := fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit); err != nil {
			return err
		}
	}
	return nil
}

// jsonMetric is one metric in the final JSON document.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the final one-line JSON document. Metric names carry a
// "workload/" prefix when more than one workload ran.
func printJSON(w io.Writer, reps []*report, traced bool) (bool, error) {
	doc := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, r := range reps {
		doc.Attempted += r.attempted
		doc.Failed += r.failed
		if len(r.problems) > 0 || r.failed > 0 {
			doc.Correct = false
		}
		for _, m := range metricsFor(traced) {
			key := m.name
			if len(reps) > 1 {
				key = r.workload + "/" + m.name
			}
			doc.Metrics[key] = jsonMetric{Value: r.values[m.name], Unit: m.unit}
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return doc.Correct, err
}

// defaultPredictor returns the daemons' default predictor configuration:
// the -pred flag family registered on a fresh FlagSet and parsed from an
// empty argument list.
func defaultPredictor() cli.PredictorFlags {
	var pf cli.PredictorFlags
	fs := flag.NewFlagSet("predictor", flag.ContinueOnError)
	pf.Register(fs)
	if err := fs.Parse(nil); err != nil {
		panic(err) // an empty argument list always parses
	}
	return pf
}

// suite returns the benchmark configurations named (all 17 for nil) with
// every generator seed shifted by seed-1, the rule ibpload uses: seed 1
// replays the suite's canonical seeds.
func suite(names []string, seed int64) ([]workload.Config, error) {
	all := workload.Suite()
	var out []workload.Config
	if names == nil {
		out = all
	} else {
		for _, n := range names {
			i := slices.IndexFunc(all, func(c workload.Config) bool { return c.Name == n })
			if i < 0 {
				return nil, fmt.Errorf("unknown benchmark %q", n)
			}
			out = append(out, all[i])
		}
	}
	for i := range out {
		out[i].Seed += uint64(seed - 1)
	}
	return out, nil
}

// Set-up repetitions: an untraced run sets its workload up at least
// minSetups times and for at least minSetupTime, at most maxSetups times,
// and reports the median as setup_s. The time floor gives the sweep's
// sub-0.1 s set-up enough repetitions for a steady median.
const (
	minSetups    = 5
	maxSetups    = 20
	minSetupTime = time.Second
)

// repeatSetup calls setup, which sets the workload up once (replacing any
// earlier set-up) and returns the time that took, by the rule above — once
// when traced, where setup_s is not reported — and returns the median in
// seconds. The time floor shrinks with o.scale.
func repeatSetup(o options, setup func() (time.Duration, error)) (float64, error) {
	var ts []float64
	var total time.Duration
	floor := time.Duration(float64(minSetupTime) * o.scale)
	for len(ts) < maxSetups && (len(ts) < minSetups || total < floor) {
		d, err := setup()
		if err != nil {
			return 0, err
		}
		ts = append(ts, d.Seconds())
		total += d
		if o.traced {
			break
		}
	}
	return median(ts), nil
}

// scaled returns n scaled by o.scale, at least lo.
func (o options) scaled(n, lo int) int {
	return max(lo, int(float64(n)*o.scale))
}
