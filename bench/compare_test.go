package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{4, 8, 15, 16, 23, 42}, 7, 27.75},
	} {
		q1, q3 := quartiles(append([]float64(nil), c.xs...))
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// runsOf builds saved runs with one metric of the stream workload.
func runsOf(metric string, vals ...float64) []savedRun {
	var out []savedRun
	for _, v := range vals {
		out = append(out, savedRun{{"stream", metric}: v})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		var out []float64
		for _, v := range base {
			out = append(out, v*f)
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100}
	for _, c := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"faster", "records_per_s", base, scale(1.2), "gain"},
		{"same", "records_per_s", base, scale(0.99), "within-bound"},
		{"slower", "records_per_s", base, scale(0.6), "regression"},
		{"noisy baseline", "records_per_s", noisy, scale(0.95), "unresolved"},
		{"lower latency", "op_p50_ms", base, scale(0.8), "gain"},
		{"higher latency", "op_p50_ms", base, scale(1.5), "regression"},
		{"setup within bound", "setup_s", base, scale(1.2), "within-bound"},
		{"per-layer has no bound", "sim.run_ns_per_record", base, scale(1.5), "-"},
	} {
		rows := compareRuns(runsOf(c.metric, c.a...), runsOf(c.metric, c.b...))
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows", c.name, len(rows))
		}
		if got := rows[0].verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q (row %+v)", c.name, got, c.want, rows[0])
		}
	}
}

// TestCompareReadsSavedOutput runs -compare over two directories of saved
// benchmark output, one row per workload.
func TestCompareReadsSavedOutput(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for side, dir := range dirs {
		for i := 0; i < 3; i++ {
			out := "# stream phase notes\n" +
				"stream records_per_s " + []string{"100", "101", "99"}[i] + " 1/s\n" +
				"churn records_per_s " + []string{"50", "51", "49"}[i] + " 1/s\n" +
				`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n"
			if side == 1 {
				out = strings.ReplaceAll(out, "churn records_per_s 5", "churn records_per_s 2")
			}
			if err := os.WriteFile(filepath.Join(dir, "run-"+string(rune('0'+i))+".txt"), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b bytes.Buffer
	if err := runCompare(&b, dirs[0], dirs[1]); err != nil {
		t.Fatal(err)
	}
	var stream, churn string
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "stream "):
			stream = line
		case strings.HasPrefix(line, "churn "):
			churn = line
		}
	}
	if !strings.HasSuffix(stream, "within-bound") || !strings.HasSuffix(churn, "regression") {
		t.Errorf("compare output:\n%s", b.String())
	}
}
