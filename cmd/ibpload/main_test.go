package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/workload"
)

// defaultPredictor returns the -pred family flags at their command-line
// defaults, registered and parsed exactly as main does.
func defaultPredictor(t *testing.T) cli.PredictorFlags {
	t.Helper()
	var pf cli.PredictorFlags
	fs := flag.NewFlagSet("ibpload", flag.ContinueOnError)
	pf.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	return pf
}

// startServer runs an in-process ibpserved equivalent on a loopback
// listener, torn down with the test.
func startServer(t *testing.T, pf cli.PredictorFlags) string {
	t.Helper()
	srv, err := serve.New(serve.Config{Predictor: pf, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// load runs realMain with the flag defaults of main, overridden by mod, and
// decodes its -json report.
func load(t *testing.T, addr string, mod func(*options)) (report, error) {
	t.Helper()
	o := options{
		addr: addr, conns: 4, bench: "all", n: 2000, frame: 512,
		retries: 1, backoff: 10 * time.Millisecond, timeout: 30 * time.Second,
		seed: 1, asJSON: true, pf: defaultPredictor(t),
	}
	if mod != nil {
		mod(&o)
	}
	var out bytes.Buffer
	err := realMain(o, &out)
	var rep report
	if jerr := json.Unmarshal(out.Bytes(), &rep); jerr != nil {
		t.Fatalf("-json output is not a report (%v):\n%s", jerr, out.String())
	}
	return rep, err
}

// TestLoadAllBenchmarksMatchSim drives the whole suite through a live server:
// every session must succeed, carry its whole generated trace, and report
// the misses a local sim.Run of the same predictor counts.
func TestLoadAllBenchmarksMatchSim(t *testing.T) {
	const n = 2000
	pf := defaultPredictor(t)
	addr := startServer(t, pf)
	rep, err := load(t, addr, nil)
	if err != nil {
		t.Fatalf("realMain: %v", err)
	}
	suite := workload.Suite()
	if rep.Failed != 0 || len(rep.Benchmarks) != len(suite) {
		t.Fatalf("report: failed %d, %d benchmarks; want 0 and %d", rep.Failed, len(rep.Benchmarks), len(suite))
	}
	byName := map[string]benchResult{}
	total := 0
	for _, r := range rep.Benchmarks {
		byName[r.Benchmark] = r
		total += r.Records
	}
	if rep.Records != total {
		t.Errorf("report records %d, sum over benchmarks %d", rep.Records, total)
	}
	for _, cfg := range suite {
		r, ok := byName[cfg.Name]
		if !ok {
			t.Errorf("%s: missing from the report", cfg.Name)
			continue
		}
		tr := cfg.MustGenerate(n)
		pred, err := pf.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Run(pred, tr, sim.Options{})
		if r.Records != len(tr) || r.Executed != want.Executed || r.Misses != want.Misses {
			t.Errorf("%s: records/executed/misses = %d/%d/%d, trace %d, sim.Run %d/%d",
				cfg.Name, r.Records, r.Executed, r.Misses, len(tr), want.Executed, want.Misses)
		}
	}
}

// TestLoadRouterModeRejectsPlainServer: -router promises cluster semantics,
// so a plain server's summaries (no placement info) fail every session and
// the run.
func TestLoadRouterModeRejectsPlainServer(t *testing.T) {
	addr := startServer(t, defaultPredictor(t))
	rep, err := load(t, addr, func(o *options) { o.bench, o.router = "gcc", true })
	if err == nil {
		t.Fatal("-router against a plain server succeeded")
	}
	if rep.Failed != 1 || len(rep.Benchmarks) != 1 {
		t.Fatalf("report: failed %d of %d benchmarks, want 1 of 1", rep.Failed, len(rep.Benchmarks))
	}
	if msg := rep.Benchmarks[0].Err; !strings.Contains(msg, "no router placement info") {
		t.Errorf("session error %q, want the no-router-placement error", msg)
	}
}
