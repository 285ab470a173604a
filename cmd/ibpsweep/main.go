// Command ibpsweep reproduces the paper's tables and figures: it runs the
// registered experiments over the 17-benchmark suite and prints paper-style
// result tables.
//
// The sweep is fault tolerant: Ctrl-C stops it cleanly after flushing every
// completed experiment, CSVs are written atomically (a killed run never
// leaves a half-written file), each completed experiment is journaled to
// <csvdir>/.sweep-manifest.json, and -resume skips experiments the manifest
// already records — so an interrupted "-run all" picks up where it left off.
//
// It is also observable: -progress keeps a live cells-done/total + rolling
// miss-rate + ETA line on stderr (and an interrupted run exits with a
// partial-progress summary), -metrics serves the telemetry registry as
// Prometheus text, -pprof serves net/http/pprof, -log controls structured
// slog output, and the -csv journal doubles as a run manifest with
// per-experiment wall times, counter snapshots, workload seeds, and tool/Go
// versions.
//
// Usage:
//
//	ibpsweep -list
//	ibpsweep -run fig9,table5 [-n 80000] [-csv results/]
//	ibpsweep -run all -csv results/ -progress
//	ibpsweep -run all -csv results/ -resume -metrics :9090 -pprof :6060
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/oocsb/ibp/internal/experiment"
	"github.com/oocsb/ibp/internal/stats"
	"github.com/oocsb/ibp/internal/telemetry"
)

// toolVersion names this build in run manifests; bump alongside schema or
// behaviour changes that affect result provenance.
const toolVersion = "ibpsweep/3"

// manifestName is the sweep journal, stored next to the CSVs.
const manifestName = ".sweep-manifest.json"

// manifest journals which experiments of a sweep have completed — and, since
// v2, the full provenance of the run: tool and Go versions, platform, the
// workload seeds and configs the traces were generated from, and a telemetry
// counter snapshot per experiment. An interrupted run resumes from it; a
// completed run's manifest is the machine-readable record of how every CSV
// was produced.
type manifest struct {
	// Version is the manifest schema version.
	Version int `json:"version"`
	// TraceLen is the -n the results were computed with; resuming with a
	// different length is refused.
	TraceLen int `json:"trace_len"`
	// ToolVersion and GoVersion record what produced the results.
	ToolVersion string `json:"tool_version,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
	// GOOS/GOARCH pin the platform (trace generation is deterministic, but
	// wall times are not portable).
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	// Suite records each benchmark workload's name and PRNG seed: with
	// TraceLen they fully determine every generated trace.
	Suite []suiteEntry `json:"suite,omitempty"`
	// Done maps experiment id to its completion record.
	Done map[string]manifestEntry `json:"done"`
}

// suiteEntry is one benchmark's generation provenance.
type suiteEntry struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
}

type manifestEntry struct {
	CompletedAt time.Time `json:"completed_at"`
	// WallMs is the experiment's wall-clock time in milliseconds.
	WallMs int64 `json:"wall_ms,omitempty"`
	// Files are the CSV files the experiment produced.
	Files []string `json:"files,omitempty"`
	// DegradedCells lists benchmark cells that failed and were recorded
	// as error rows instead of aborting (format "bench: error").
	DegradedCells []string `json:"degraded_cells,omitempty"`
	// Counters is the telemetry movement attributed to this experiment
	// (snapshot delta across its run): records simulated, cache hits,
	// evictions, cell timings, and the rest of the sweep_*/sim_*/trace_*
	// families.
	Counters telemetry.Snapshot `json:"counters,omitempty"`
}

// loadManifest reads the journal; a missing file yields an empty manifest.
func loadManifest(dir string) (*manifest, error) {
	m := &manifest{Version: 2, Done: make(map[string]manifestEntry)}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("%s: corrupt manifest: %w", filepath.Join(dir, manifestName), err)
	}
	if m.Done == nil {
		m.Done = make(map[string]manifestEntry)
	}
	return m, nil
}

// save writes the journal atomically (temp file + rename), so a crash
// mid-write can never corrupt the previous journal.
func (m *manifest) save(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, manifestName), data)
}

// stamp fills the manifest's provenance fields from the current run.
func (m *manifest) stamp(ectx *experiment.Context) {
	m.Version = 2
	m.ToolVersion = toolVersion
	m.GoVersion = runtime.Version()
	m.GOOS = runtime.GOOS
	m.GOARCH = runtime.GOARCH
	m.Suite = m.Suite[:0]
	for _, cfg := range ectx.Suite {
		m.Suite = append(m.Suite, suiteEntry{Name: cfg.Name, Seed: cfg.Seed})
	}
}

// atomicWrite writes data to path via a temp file in the same directory and
// an atomic rename; readers never observe a partial file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// options carries every flag of the tool; realMain takes it whole so tests
// drive the full surface in-process.
type options struct {
	list     bool
	run      string
	traceLen int
	csvDir   string
	resume   bool

	progress    bool   // live status line on stderr
	metricsAddr string // serve /metrics + /vars here
	pprofAddr   string // serve /debug/pprof here
	metricsDump string // write a final telemetry snapshot JSON here
	logLevel    string // slog level: debug|info|warn|error|off
}

func main() {
	var o options
	flag.BoolVar(&o.list, "list", false, "list available experiments and exit")
	flag.StringVar(&o.run, "run", "", "comma-separated experiment ids, or \"all\"")
	flag.IntVar(&o.traceLen, "n", 0, "indirect branches per benchmark (default 80000)")
	flag.StringVar(&o.csvDir, "csv", "", "directory to write one CSV per result table (plus the run manifest)")
	flag.BoolVar(&o.resume, "resume", false, "skip experiments already journaled in the -csv dir's manifest")
	flag.BoolVar(&o.progress, "progress", false, "render a live cells-done/total + miss-rate + ETA line on stderr")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve telemetry at this address (/metrics Prometheus text, /vars JSON)")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof at this address")
	flag.StringVar(&o.metricsDump, "metricsdump", "", "write the final telemetry snapshot as JSON to this file")
	flag.StringVar(&o.logLevel, "log", "info", "structured log level: debug, info, warn, error, off")
	flag.Parse()
	// SIGINT/SIGTERM cancel the run cooperatively: the current experiment
	// stops at the next cancellation point, completed experiments keep
	// their flushed CSVs and manifest entries.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := realMain(ctx, o); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "ibpsweep: interrupted; completed experiments are preserved (rerun with -resume)")
		} else {
			fmt.Fprintln(os.Stderr, "ibpsweep:", err)
		}
		os.Exit(1)
	}
}

func realMain(ctx context.Context, o options) error {
	level, err := telemetry.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	log := telemetry.NewLogger(os.Stderr, level)
	if o.list {
		for _, e := range experiment.All() {
			fmt.Printf("%-12s %-28s %s\n", e.ID, e.Artifact, e.Desc)
		}
		return nil
	}
	if o.run == "" {
		return fmt.Errorf("nothing to do: pass -run <ids> or -list")
	}
	if o.resume && o.csvDir == "" {
		return fmt.Errorf("-resume needs -csv: the manifest lives next to the CSVs")
	}

	// The registry is always on for a run: its cost is a handful of atomic
	// adds per 8192-record block, and the run manifest wants the snapshots.
	reg := telemetry.Enable(nil)
	if o.metricsDump != "" {
		defer func() {
			data, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if err == nil {
				err = atomicWrite(o.metricsDump, append(data, '\n'))
			}
			if err != nil {
				log.Error("metrics dump failed", "path", o.metricsDump, "err", err)
			} else {
				log.Info("metrics snapshot written", "path", o.metricsDump)
			}
		}()
	}
	if o.metricsAddr != "" {
		srv, addr, err := telemetry.ServeMetrics(o.metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("-metrics %s: %w", o.metricsAddr, err)
		}
		defer srv.Close()
		log.Info("metrics endpoint listening", "addr", addr, "paths", "/metrics,/vars")
	}
	if o.pprofAddr != "" {
		srv, addr, err := telemetry.ServePprof(o.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof %s: %w", o.pprofAddr, err)
		}
		defer srv.Close()
		log.Info("pprof endpoint listening", "addr", addr, "paths", "/debug/pprof/")
	}

	var selected []experiment.Experiment
	if o.run == "all" {
		// The appendix experiments share one computation; tableA1 runs
		// once on behalf of its aliases.
		alias := map[string]bool{"fig18": true, "table6": true, "tableA2": true}
		for _, e := range experiment.All() {
			if !alias[e.ID] {
				selected = append(selected, e)
			}
		}
	} else {
		for _, id := range strings.Split(o.run, ",") {
			e, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	ectx := experiment.NewContext(o.traceLen).WithContext(ctx)

	var man *manifest
	if o.csvDir != "" {
		if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
			return err
		}
		var err error
		man, err = loadManifest(o.csvDir)
		if err != nil {
			return err
		}
		if o.resume {
			if len(man.Done) > 0 && man.TraceLen != ectx.TraceLen {
				return fmt.Errorf("manifest in %s was written with -n %d, current run uses -n %d; rerun with the matching -n or remove %s",
					o.csvDir, man.TraceLen, ectx.TraceLen, manifestName)
			}
		} else if len(man.Done) > 0 {
			// A fresh (non-resume) run invalidates the old journal.
			man.Done = make(map[string]manifestEntry)
		}
		man.TraceLen = ectx.TraceLen
		man.stamp(ectx)
	}

	var prog *progressRenderer
	if o.progress {
		prog = startProgress(os.Stderr, ectx, 250*time.Millisecond)
		defer prog.Stop()
	}

	var (
		completed         []string
		allDegraded       []experiment.CellError
		failedExperiments []string
	)
	// summary reports partial progress when the run is cut short; the
	// status line (if any) is stopped first so the summary lands on a
	// clean stderr line.
	summary := func() {
		if prog != nil {
			prog.Stop()
			prog = nil
		}
		printInterruptSummary(os.Stderr, ectx, completed, allDegraded)
	}
	for i, e := range selected {
		if err := ctx.Err(); err != nil {
			summary()
			return err
		}
		if man != nil && o.resume {
			if _, done := man.Done[e.ID]; done {
				fmt.Printf("=== %s (%s): already complete, skipping (resume)\n", e.ID, e.Artifact)
				continue
			}
		}
		if prog != nil {
			prog.SetLabel(fmt.Sprintf("%d/%d %s", i+1, len(selected), e.ID))
		}
		start := time.Now()
		before := reg.Snapshot()
		fmt.Printf("=== %s (%s): %s\n", e.ID, e.Artifact, e.Desc)
		log.Debug("experiment starting", "id", e.ID, "artifact", e.Artifact)
		tables, err := e.Run(ectx)
		degraded := ectx.TakeFailures()
		allDegraded = append(allDegraded, degraded...)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				summary()
				return err
			}
			// A broken experiment must not kill the rest of the sweep:
			// record it, keep going, fail at the end.
			log.Error("experiment failed", "id", e.ID, "err", err)
			failedExperiments = append(failedExperiments, fmt.Sprintf("%s: %v", e.ID, err))
			continue
		}
		wall := time.Since(start)
		entry := manifestEntry{
			CompletedAt: time.Now().UTC(),
			WallMs:      wall.Milliseconds(),
			Counters:    reg.Snapshot().Delta(before),
		}
		for _, d := range degraded {
			log.Warn("degraded cell", "id", e.ID, "cell", d.Bench, "err", d.Err)
			entry.DegradedCells = append(entry.DegradedCells, d.Error())
		}
		if err := emitTables(e.ID, tables, o.csvDir, &entry); err != nil {
			return err
		}
		if man != nil {
			man.Done[e.ID] = entry
			if err := man.save(o.csvDir); err != nil {
				return fmt.Errorf("journaling %s: %w", e.ID, err)
			}
		}
		completed = append(completed, e.ID)
		log.Info("experiment done", "id", e.ID, "wall", wall.Round(time.Millisecond),
			"tables", len(tables), "degraded", len(degraded))
		fmt.Println()
	}
	if len(failedExperiments) > 0 {
		return fmt.Errorf("%d experiment(s) failed: %s",
			len(failedExperiments), strings.Join(failedExperiments, "; "))
	}
	return nil
}

// emitTables renders an experiment's tables to stdout and, when csvDir is
// set, writes each as an atomically-created CSV, recording the file names
// in the manifest entry.
func emitTables(id string, tables []*stats.Table, csvDir string, entry *manifestEntry) error {
	for i, tb := range tables {
		fmt.Println()
		if err := tb.Render(os.Stdout); err != nil {
			return err
		}
		if csvDir == "" {
			continue
		}
		name := fmt.Sprintf("%s-%d.csv", id, i)
		var buf strings.Builder
		if err := tb.WriteCSV(&buf); err != nil {
			return err
		}
		if err := atomicWrite(filepath.Join(csvDir, name), []byte(buf.String())); err != nil {
			return err
		}
		entry.Files = append(entry.Files, name)
	}
	return nil
}
