package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runKey names one metric of one workload.
type runKey struct{ workload, metric string }

// savedRun is one saved benchmark run: every "workload metric value unit" line
// of its output.
type savedRun map[runKey]float64

// loadRuns reads every regular file in dir, in file-name order, as the saved
// standard output of one benchmark run. Files without metric lines are
// skipped.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if len(r) > 0 {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no saved runs", dir)
	}
	return runs, nil
}

func parseRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := make(savedRun)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20) // the JSON line can be long
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		r[runKey{fields[0], fields[1]}] = v
	}
	return r, sc.Err()
}

// comparison is one (workload, metric) row of a compare report.
type comparison struct {
	key            runKey
	def            metricDef
	a, b           []float64 // values in run order
	aMed, bMed     float64
	aQ1, aQ3       float64
	bQ1, bQ3       float64
	wins, pairs    int
	verdict        string
	spread, change float64 // baseline IQR/median; B's median change as a share of A's, positive when better
}

// compareRuns compares baseline runs a with candidate runs b: the i-th run
// of a workload on one side pairs with the i-th run of it on the other; B
// wins a pair when it reads better; a gain needs nine tenths of the pairs
// and a median difference beyond the baseline's quartile spread. End-to-end
// metrics are then judged against their bound: unresolved when the
// baseline's own spread exceeds the bound (unless every B run beats every A
// run), regression when B's median is worse by more than the bound, else
// within-bound. Per-layer metrics have no bound and get only gain or "-".
func compareRuns(a, b []savedRun) []comparison {
	var out []comparison
	for _, w := range workloadsIn(a, b) {
		for _, def := range append(slices.Clone(endToEnd), perLayer...) {
			k := runKey{w, def.name}
			c := comparison{key: k, def: def, a: valuesOf(a, k), b: valuesOf(b, k)}
			if len(c.a) == 0 || len(c.b) == 0 {
				continue
			}
			c.pairs = min(len(c.a), len(c.b))
			for i := range c.pairs {
				if better(def, c.b[i], c.a[i]) {
					c.wins++
				}
			}
			c.aMed, c.bMed = median(slices.Clone(c.a)), median(slices.Clone(c.b))
			c.aQ1, c.aQ3 = quartiles(slices.Clone(c.a))
			c.bQ1, c.bQ3 = quartiles(slices.Clone(c.b))
			c.verdict = judge(&c)
			out = append(out, c)
		}
	}
	return out
}

// valuesOf returns k's value in every run that has it, in run order.
func valuesOf(runs []savedRun, k runKey) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[k]; ok {
			out = append(out, v)
		}
	}
	return out
}

// workloadsIn lists the workloads present in either side, known ones in
// run order first.
func workloadsIn(sides ...[]savedRun) []string {
	seen := map[string]bool{}
	for _, runs := range sides {
		for _, r := range runs {
			for k := range r {
				seen[k.workload] = true
			}
		}
	}
	var out []string
	for _, w := range workloadNames {
		if seen[w] {
			out = append(out, w)
			delete(seen, w)
		}
	}
	var rest []string
	for w := range seen {
		rest = append(rest, w)
	}
	slices.Sort(rest)
	return append(out, rest...)
}

// better reports whether x reads strictly better than y.
func better(def metricDef, x, y float64) bool {
	if def.better == "higher" {
		return x > y
	}
	return x < y
}

func judge(c *comparison) string {
	gainBy := c.bMed - c.aMed
	if c.def.better != "higher" {
		gainBy = -gainBy
	}
	iqr := c.aQ3 - c.aQ1
	c.spread = ratio(iqr, math.Abs(c.aMed))
	c.change = ratio(gainBy, math.Abs(c.aMed))
	if c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && gainBy > iqr {
		return "gain"
	}
	if c.def.bound == 0 {
		return "-"
	}
	allBetter := true
	for _, bv := range c.b {
		for _, av := range c.a {
			if !better(c.def, bv, av) {
				allBetter = false
			}
		}
	}
	switch {
	case c.spread > c.def.bound && !allBetter:
		return "unresolved"
	case -c.change > c.def.bound:
		return "regression"
	}
	return "within-bound"
}

// runCompare prints the comparison of the saved runs in aDir (baseline)
// and bDir (candidate), one row per workload and metric.
func runCompare(w io.Writer, aDir, bDir string) error {
	a, err := loadRuns(aDir)
	if err != nil {
		return err
	}
	b, err := loadRuns(bDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs)\n", aDir, len(a), bDir, len(b))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tA spread\tB change\tB wins\tbound\tverdict")
	for _, c := range compareRuns(a, b) {
		bound := "-"
		if c.def.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*c.def.bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%.6g..%.6g\t%.1f%%\t%+.1f%%\t%d/%d\t%s\t%s\n",
			c.key.workload, c.key.metric, c.def.unit, c.aMed, c.aQ1, c.aQ3, c.bMed, c.bQ1, c.bQ3,
			100*c.spread, 100*c.change, c.wins, c.pairs, bound, c.verdict)
	}
	return tw.Flush()
}
