package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/experiment"
	"github.com/oocsb/ibp/internal/telemetry"
)

func bg() context.Context { return context.Background() }

// sweep runs realMain with -run set, defaulting everything else.
func sweep(ctx context.Context, run string, n int, mod func(*options)) error {
	o := options{run: run, traceLen: n, logLevel: "off"}
	if mod != nil {
		mod(&o)
	}
	return realMain(ctx, o)
}

func TestRealMainList(t *testing.T) {
	if err := realMain(bg(), options{list: true, logLevel: "off"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
}

func TestRealMainNoArgs(t *testing.T) {
	if err := realMain(bg(), options{logLevel: "off"}); err == nil {
		t.Fatal("no -run accepted")
	}
}

func TestRealMainUnknownExperiment(t *testing.T) {
	if err := sweep(bg(), "nonesuch", 0, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRealMainBadLogLevel(t *testing.T) {
	if err := realMain(bg(), options{list: true, logLevel: "shouty"}); err == nil {
		t.Fatal("invalid -log level accepted")
	}
}

func TestRealMainRunsAndWritesCSV(t *testing.T) {
	dir := t.TempDir()
	// table1 is cheap even at a moderate trace length.
	if err := sweep(bg(), "table1", 2000, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "table1-*.csv"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no CSV written: %v %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty CSV")
	}
	// No temp files may survive the atomic writes.
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

func TestRealMainCommaSeparated(t *testing.T) {
	if err := sweep(bg(), "table1, sites", 1500, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRealMainCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := sweep(ctx, "table1", 2000, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRealMainResumeNeedsCSV(t *testing.T) {
	if err := sweep(bg(), "table1", 2000, func(o *options) { o.resume = true }); err == nil {
		t.Fatal("-resume without -csv accepted")
	}
}

func readManifest(t *testing.T, dir string) *manifest {
	t.Helper()
	m, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestJournalsCompletion(t *testing.T) {
	dir := t.TempDir()
	if err := sweep(bg(), "table1,sites", 1500, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if m.TraceLen != 1500 {
		t.Errorf("manifest trace_len = %d, want 1500", m.TraceLen)
	}
	for _, id := range []string{"table1", "sites"} {
		e, ok := m.Done[id]
		if !ok {
			t.Fatalf("experiment %s not journaled: %+v", id, m.Done)
		}
		if len(e.Files) == 0 || e.CompletedAt.IsZero() {
			t.Errorf("incomplete journal entry for %s: %+v", id, e)
		}
		for _, f := range e.Files {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("journaled file missing: %v", err)
			}
		}
	}
}

// TestRunManifestProvenance pins the run-manifest schema: tool/Go versions,
// platform, workload seeds, and per-experiment wall time + telemetry counter
// movement must all be journaled.
func TestRunManifestProvenance(t *testing.T) {
	dir := t.TempDir()
	// fig9 exercises the batched sweep path, so sweep_*/sim_* counters move.
	if err := sweep(bg(), "fig9", 1500, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if m.Version != 2 {
		t.Errorf("manifest version = %d, want 2", m.Version)
	}
	if m.ToolVersion != toolVersion || m.GoVersion != runtime.Version() {
		t.Errorf("tool provenance missing: tool=%q go=%q", m.ToolVersion, m.GoVersion)
	}
	if m.GOOS != runtime.GOOS || m.GOARCH != runtime.GOARCH {
		t.Errorf("platform missing: %s/%s", m.GOOS, m.GOARCH)
	}
	if len(m.Suite) == 0 {
		t.Fatal("workload suite provenance missing")
	}
	for _, s := range m.Suite {
		if s.Name == "" || s.Seed == 0 {
			t.Errorf("suite entry missing name or seed: %+v", s)
		}
	}
	e, ok := m.Done["fig9"]
	if !ok {
		t.Fatal("fig9 not journaled")
	}
	if len(e.Counters) == 0 {
		t.Error("no telemetry counters journaled for fig9")
	}
	for _, want := range []string{"sim_records_total", "sweep_cells_done_total"} {
		if e.Counters[want] <= 0 {
			t.Errorf("counter %s = %v, want > 0 (have %v)", want, e.Counters[want], e.Counters)
			break
		}
	}
}

func TestResumeSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	if err := sweep(bg(), "table1", 1500, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	first := readManifest(t, dir)
	stamp := first.Done["table1"].CompletedAt

	// Resume with one more experiment: table1 must be skipped (its
	// timestamp survives), sites must run.
	err := sweep(bg(), "table1,sites", 1500, func(o *options) { o.csvDir, o.resume = dir, true })
	if err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if got := m.Done["table1"].CompletedAt; !got.Equal(stamp) {
		t.Errorf("table1 was recomputed: %v != %v", got, stamp)
	}
	if _, ok := m.Done["sites"]; !ok {
		t.Error("sites not journaled after resume")
	}
}

func TestResumeRejectsTraceLenMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := sweep(bg(), "table1", 1500, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	err := sweep(bg(), "table1", 3000, func(o *options) { o.csvDir, o.resume = dir, true })
	if err == nil || !strings.Contains(err.Error(), "-n") {
		t.Fatalf("trace-length mismatch accepted on resume: %v", err)
	}
}

func TestFreshRunInvalidatesManifest(t *testing.T) {
	dir := t.TempDir()
	if err := sweep(bg(), "table1,sites", 1500, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	// A non-resume run clears previous completions and journals only its
	// own experiments.
	if err := sweep(bg(), "table1", 1500, func(o *options) { o.csvDir = dir }); err != nil {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if _, ok := m.Done["sites"]; ok {
		t.Error("stale manifest entry survived a fresh run")
	}
	if _, ok := m.Done["table1"]; !ok {
		t.Error("fresh run not journaled")
	}
}

func TestLoadManifestCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadManifest(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := atomicWrite(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWrite(path, []byte("world")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "world" {
		t.Fatalf("read %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("stray files: %v", entries)
	}
}

// TestInterruptMidSweep simulates the SIGINT acceptance flow in-process: a
// context cancelled partway through "-run" of two experiments must leave
// the completed experiment's CSVs + manifest intact, and -resume must
// finish only the remainder.
func TestInterruptMidSweep(t *testing.T) {
	dir := t.TempDir()
	// Cancel shortly after the run starts: table1 (cheap, first) usually
	// completes; the second experiment observes cancellation. Whatever the
	// timing, invariants must hold.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	err := sweep(ctx, "table1,fig9", 60000, func(o *options) { o.csvDir = dir })
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	m := readManifest(t, dir)
	// Every journaled experiment's files must exist and parse as CSV.
	for id, e := range m.Done {
		for _, f := range e.Files {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil || len(data) == 0 {
				t.Errorf("journaled %s file %s: %v", id, f, err)
			}
		}
	}
	// No partial temp files.
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
	// Resume must finish the sweep.
	err = sweep(bg(), "table1,fig9", 60000, func(o *options) { o.csvDir, o.resume = dir, true })
	if err != nil {
		t.Fatal(err)
	}
	m = readManifest(t, dir)
	for _, id := range []string{"table1", "fig9"} {
		if _, ok := m.Done[id]; !ok {
			t.Errorf("%s missing after resume", id)
		}
	}
}

// TestMetricsAndPprofServe checks the observability endpoints: a sweep run
// with -metrics and -pprof on ephemeral ports must start both servers, and
// the telemetry endpoint must serve Prometheus text and JSON directly.
func TestMetricsAndPprofServe(t *testing.T) {
	err := sweep(bg(), "table1", 1500, func(o *options) {
		o.metricsAddr = "127.0.0.1:0"
		o.pprofAddr = "127.0.0.1:0"
	})
	if err != nil {
		t.Fatalf("sweep with -metrics/-pprof: %v", err)
	}

	// Exercise the endpoints against a live server (realMain closed its
	// own on exit; bind a fresh one to inspect responses).
	reg := telemetry.Enable(nil)
	defer telemetry.Disable()
	reg.Counter("sweep_demo_total").Add(3)
	srv, addr, err := telemetry.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "sweep_demo_total 3") {
		t.Errorf("metrics endpoint: status %d, body %q", resp.StatusCode, body)
	}
	psrv, paddr, err := telemetry.ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	resp, err = http.Get("http://" + paddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}
}

func TestMetricsDump(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "metrics.json")
	err := sweep(bg(), "fig9", 1500, func(o *options) { o.metricsDump = dump })
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics dump is not a JSON snapshot: %v", err)
	}
	if snap["sim_records_total"] <= 0 {
		t.Errorf("sim_records_total = %v, want > 0 (snapshot %v)", snap["sim_records_total"], snap)
	}
}

// TestProgressLineAndInterruptSummary unit-tests the renderer's line format
// and the partial-progress summary against a fabricated context state.
func TestProgressLineAndInterruptSummary(t *testing.T) {
	ectx := experiment.NewContext(1500)
	// Run one real (cheap) experiment so the progress counters move.
	e, err := experiment.ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ectx); err != nil {
		t.Fatal(err)
	}
	s := ectx.Progress()
	if s.CellsTotal == 0 || s.CellsDone != s.CellsTotal {
		t.Fatalf("progress after a full run: %+v", s)
	}
	if s.Executed == 0 || s.MissRate() <= 0 {
		t.Errorf("no rolling miss rate: %+v", s)
	}

	p := &progressRenderer{ectx: ectx}
	p.label.Store("2/24 fig9")
	line := p.line()
	for _, want := range []string{"sweep [2/24 fig9]", "cells ", "miss "} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}

	// Stop must be idempotent: the interrupt path stops the renderer for
	// the summary, then the deferred Stop fires again.
	live := startProgress(io.Discard, ectx, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	live.Stop()
	live.Stop()

	var buf strings.Builder
	printInterruptSummary(&buf, ectx, []string{"fig9"},
		[]experiment.CellError{{Bench: "perl", Err: errors.New("boom")}})
	out := buf.String()
	for _, want := range []string{"interrupted after", "1 experiment(s) completed",
		"rolling miss rate", "completed: [fig9]", "degraded cell: perl: boom"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
