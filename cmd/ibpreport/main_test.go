package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/cli"
)

// reportOpts is the committed-golden configuration: a paper benchmark (idl,
// the IDL compiler of Table 3) under a bounded two-level predictor small
// enough to show alias misses at n=4000.
func reportOpts() options {
	return options{
		bench: "idl", n: 4000, warmup: 100,
		pf: cli.PredictorFlags{
			Pred: "2lev", Path: 2, HistShare: 32, TabShare: 2,
			Precision: -1, Scheme: "reverse", KeyOp: "xor",
			Table: "assoc4", Entries: 512, Update: "2bc",
		},
		top: 10, sample: 1, format: "text",
	}
}

// golden compares got against testdata/name; the committed files pin the
// deterministic top-10 mispredicting-branch table with its miss-class
// breakdown (regenerate by running the documented command when the
// simulation intentionally changes).
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTextReport(t *testing.T) {
	rep, err := buildReport(reportOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := renderText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	golden(t, "report_idl.txt", buf.Bytes())
}

func TestGoldenCSVReport(t *testing.T) {
	rep, err := buildReport(reportOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := renderCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	golden(t, "report_idl.csv", buf.Bytes())
}

func TestReportInvariants(t *testing.T) {
	rep, err := buildReport(reportOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Error("full-ring unsampled capture reported incomplete")
	}
	if rep.Events != rep.TraceLen {
		t.Errorf("captured %d events over %d branches", rep.Events, rep.TraceLen)
	}
	classTotal := 0
	for _, n := range rep.ByClass {
		classTotal += n
	}
	if classTotal != rep.Misses {
		t.Errorf("classes sum to %d, misses are %d — every miss must be classified", classTotal, rep.Misses)
	}
	if len(rep.Branches) != 10 {
		t.Errorf("got %d branch rows, want top 10", len(rep.Branches))
	}
	for i := 1; i < len(rep.Branches); i++ {
		a, b := rep.Branches[i-1], rep.Branches[i]
		if a.Misses < b.Misses || (a.Misses == b.Misses && a.PC >= b.PC) {
			t.Errorf("rows %d/%d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
}

func TestJSONRoundTrips(t *testing.T) {
	rep, err := buildReport(reportOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := renderJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Misses != rep.Misses || len(back.Branches) != len(rep.Branches) {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestSampledCaptureIsMarkedPartial(t *testing.T) {
	o := reportOpts()
	o.sample = 7
	rep, err := buildReport(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Error("sampled capture claims completeness")
	}
	var buf bytes.Buffer
	if err := renderText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "partial") {
		t.Error("text report hides partial coverage")
	}
}

func TestChromeTraceExport(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, filepath.Join("testdata", "manifest.json")); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", tr.DisplayTimeUnit)
	}
	var slices, counters int
	var sawFig2, sawFig9 bool
	for _, ev := range tr.TraceEvents {
		if ev.Ts < 0 {
			t.Errorf("negative timestamp on %q", ev.Name)
		}
		switch ev.Ph {
		case "X":
			slices++
			switch ev.Name {
			case "fig2":
				sawFig2 = true
				if ev.Ts != 0 || ev.Dur != 2_000_000 {
					t.Errorf("fig2 slice ts=%d dur=%d, want 0/2000000", ev.Ts, ev.Dur)
				}
			case "fig9":
				sawFig9 = true
				if ev.Dur != 5_000_000 {
					t.Errorf("fig9 dur=%d, want 5000000", ev.Dur)
				}
			}
		case "C":
			counters++
			if ev.Name == "sim_records_total" && ev.Ts == 5_000_000 {
				// fig9 completes last: the cumulative track must have
				// folded fig2's 400 in by then.
				if v := ev.Args["value"].(float64); v != 1400 {
					t.Errorf("cumulative sim_records_total = %v, want 1400", v)
				}
			}
		}
	}
	if !sawFig2 || !sawFig9 || slices != 2 {
		t.Errorf("slices=%d fig2=%v fig9=%v", slices, sawFig2, sawFig9)
	}
	if counters == 0 {
		t.Error("no counter tracks emitted")
	}
}

func TestChromeTraceBadInputs(t *testing.T) {
	if err := writeChromeTrace(&bytes.Buffer{}, "/nonexistent.json"); err == nil {
		t.Error("missing manifest accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"version":2,"done":{}}`), 0o644)
	if err := writeChromeTrace(&bytes.Buffer{}, empty); err == nil {
		t.Error("empty manifest accepted")
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	os.WriteFile(corrupt, []byte(`{nope`), 0o644)
	if err := writeChromeTrace(&bytes.Buffer{}, corrupt); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

func TestBadReportOptions(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.bench = "nonesuch" },
		func(o *options) { o.pf.Pred = "nonesuch" },
		func(o *options) { o.pf.Table = "nonesuch" },
	}
	for i, mod := range cases {
		o := reportOpts()
		mod(&o)
		if _, err := buildReport(o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := realMain(options{}); err == nil {
		t.Error("no -bench and no -chrome accepted")
	}
	o := reportOpts()
	o.format = "nonesuch"
	if err := realMain(o); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestUnbuildablePredictorIsFlagError: -p 64 with the default unbounded
// table is in range flag by flag, but Build refuses it; the report must
// refuse it up front as a *cli.FlagError that names its flag.
func TestUnbuildablePredictorIsFlagError(t *testing.T) {
	o := reportOpts()
	o.pf.Path, o.pf.Table, o.pf.Entries = 64, "unbounded", 0
	_, err := buildReport(o)
	var fe *cli.FlagError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "-"+fe.Flag) {
		t.Fatalf("-p 64 with the unbounded table: %v, want a *cli.FlagError naming its flag", err)
	}
}
