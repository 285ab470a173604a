// Command ibpload drives an ibpserved instance: it replays generated
// benchmark traces through M concurrent sessions and reports per-benchmark
// miss rates plus aggregate throughput and frame-latency percentiles.
//
// Examples:
//
//	ibpload -addr 127.0.0.1:9670 -bench all -conns 4
//	ibpload -addr 127.0.0.1:9670 -bench gcc -n 200000 -frame 4096
//	ibpload -addr 127.0.0.1:9670 -bench all -pred btb-2bc -json
//	ibpload -addr 127.0.0.1:9680 -router -bench all -conns 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/workload"
)

type options struct {
	addr      string
	conns     int
	bench     string
	n         int
	frame     int
	window    int
	warmup    int
	events    bool
	retries   int
	backoff   time.Duration
	timeout   time.Duration
	seed      int64
	asJSON    bool
	router    bool
	tenant    string
	traceID   string
	traceDump string

	pf cli.PredictorFlags
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9670", "ibpserved address")
	flag.IntVar(&o.conns, "conns", 4, "concurrent sessions")
	flag.StringVar(&o.bench, "bench", "all", "benchmark name or \"all\"")
	flag.IntVar(&o.n, "n", 20000, "indirect branches per generated benchmark")
	flag.IntVar(&o.frame, "frame", 2048, "records per frame (0 = server maximum)")
	flag.IntVar(&o.window, "window", 0, "requested frame window (0 = server default)")
	flag.IntVar(&o.warmup, "warmup", 0, "indirect branches excluded from accounting")
	flag.BoolVar(&o.events, "events", false, "request per-branch outcome events")
	flag.IntVar(&o.retries, "retries", 3, "dial retries per session")
	flag.DurationVar(&o.backoff, "backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "dial and per-frame I/O timeout")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed offset (added to each benchmark's suite seed)")
	flag.BoolVar(&o.asJSON, "json", false, "emit one JSON document instead of the table")
	flag.BoolVar(&o.router, "router", false, "target an ibprouter ingress: require per-session placement info and report failovers")
	flag.StringVar(&o.tenant, "tenant", "", "tenant tag pinned into each session's Hello (grouping key in /sessions and ibptop)")
	flag.StringVar(&o.traceID, "traceid", "", "pin per-session trace IDs (\"<prefix>-<benchmark>\") into the Hello so server-side flight recorders correlate")
	flag.StringVar(&o.traceDump, "tracedump", "", "write a client-side flight-recorder dump (send/ack stamps per frame) to this file")
	o.pf.Register(flag.CommandLine)
	flag.Parse()
	if err := realMain(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ibpload:", err)
		os.Exit(1)
	}
}

// benchResult is one session's outcome.
type benchResult struct {
	Benchmark string        `json:"benchmark"`
	Predictor string        `json:"predictor"`
	Records   int           `json:"records"`
	Frames    int           `json:"frames"`
	Executed  int           `json:"executed"`
	Misses    int           `json:"misses"`
	MissRate  float64       `json:"missRate"`
	Drained   bool          `json:"drained,omitempty"`
	Events    int           `json:"events,omitempty"`
	Backend   string        `json:"backend,omitempty"`
	Failovers int           `json:"failovers,omitempty"`
	Replayed  int           `json:"replayedFrames,omitempty"`
	Elapsed   time.Duration `json:"-"`
	ElapsedMS float64       `json:"elapsedMs"`
	Err       string        `json:"error,omitempty"`
}

// hopStats is one client-side duration family's percentile summary.
type hopStats struct {
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
}

func newHopStats(ds []time.Duration) hopStats {
	return hopStats{
		P50Ms:  percentileMS(ds, 0.50),
		P95Ms:  percentileMS(ds, 0.95),
		P99Ms:  percentileMS(ds, 0.99),
		P999Ms: percentileMS(ds, 0.999),
	}
}

// report is the aggregate -json document.
type report struct {
	Addr        string        `json:"addr"`
	Conns       int           `json:"conns"`
	Benchmarks  []benchResult `json:"benchmarks"`
	Records     int           `json:"records"`
	Elapsed     string        `json:"elapsed"`
	RecordsPS   float64       `json:"recordsPerSec"`
	LatencyP50  float64       `json:"frameLatencyP50Ms"`
	LatencyP95  float64       `json:"frameLatencyP95Ms"`
	LatencyP99  float64       `json:"frameLatencyP99Ms"`
	LatencyP999 float64       `json:"frameLatencyP999Ms"`
	// Hops breaks the client's view of a frame's life into its local
	// stages: window-wait (backpressure before the send, with the flush of
	// the frames buffered before it), write (encode and buffered write),
	// and rtt (send to ack); see serve.FrameTiming.
	Hops           map[string]hopStats `json:"hops,omitempty"`
	Failed         int                 `json:"failed"`
	Failovers      int                 `json:"failovers"`
	ReplayedFrames int                 `json:"replayedFrames"`
}

func realMain(o options, stdout io.Writer) error {
	if err := o.pf.CheckBuild(); err != nil {
		return err
	}
	if err := cli.ValidateSeed(o.seed); err != nil {
		return err
	}
	if o.conns <= 0 {
		o.conns = 1
	}

	var cfgs []workload.Config
	if o.bench == "all" {
		cfgs = workload.Suite()
	} else {
		cfg, err := workload.ByName(o.bench)
		if err != nil {
			return err
		}
		cfgs = []workload.Config{cfg}
	}
	// -seed 1 replays the suite's canonical seeds; other values shift every
	// benchmark deterministically.
	for i := range cfgs {
		cfgs[i].Seed += uint64(o.seed - 1)
	}

	// A client-side flight recorder (for -tracedump): each frame's send and
	// ack stamps, fusable with the router's and backends' dumps.
	var rec *flight.Recorder
	if o.traceDump != "" {
		rec = flight.NewRecorder(flight.Options{Service: "ibpload", Capacity: 1 << 14})
	}

	// Round-robin the benchmarks over the connection workers; each worker
	// runs its benchmarks sequentially, one session per benchmark.
	var (
		mu        sync.Mutex
		results   []benchResult
		latencies []time.Duration
		timings   timingAgg
	)
	jobs := make(chan workload.Config)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range jobs {
				res, lats, tm := runBenchmark(o, cfg, rec)
				mu.Lock()
				results = append(results, res)
				latencies = append(latencies, lats...)
				timings.merge(tm)
				mu.Unlock()
			}
		}()
	}
	for _, cfg := range cfgs {
		jobs <- cfg
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(results, func(i, j int) bool { return results[i].Benchmark < results[j].Benchmark })
	rep := report{Addr: o.addr, Conns: o.conns, Benchmarks: results, Elapsed: elapsed.String()}
	for _, r := range results {
		rep.Records += r.Records
		rep.Failovers += r.Failovers
		rep.ReplayedFrames += r.Replayed
		if r.Err != "" {
			rep.Failed++
		}
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.RecordsPS = float64(rep.Records) / s
	}
	rep.LatencyP50 = percentileMS(latencies, 0.50)
	rep.LatencyP95 = percentileMS(latencies, 0.95)
	rep.LatencyP99 = percentileMS(latencies, 0.99)
	rep.LatencyP999 = percentileMS(latencies, 0.999)
	if len(timings.winWait) > 0 {
		rep.Hops = map[string]hopStats{
			"window-wait": newHopStats(timings.winWait),
			"write":       newHopStats(timings.write),
			"rtt":         newHopStats(timings.rtt),
		}
	}

	if o.traceDump != "" {
		if err := writeTraceDump(o.traceDump, rec); err != nil {
			return err
		}
	}
	if o.asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printTable(stdout, rep)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", rep.Failed, len(results))
	}
	return nil
}

// timingAgg accumulates the client-side per-hop durations across sessions.
type timingAgg struct {
	winWait []time.Duration
	write   []time.Duration
	rtt     []time.Duration
}

func (a *timingAgg) merge(b timingAgg) {
	a.winWait = append(a.winWait, b.winWait...)
	a.write = append(a.write, b.write...)
	a.rtt = append(a.rtt, b.rtt...)
}

// runBenchmark generates one benchmark trace and streams it through a fresh
// session, collecting per-frame latencies and hop timings.
func runBenchmark(o options, cfg workload.Config, rec *flight.Recorder) (benchResult, []time.Duration, timingAgg) {
	res := benchResult{Benchmark: cfg.Name}
	var tm timingAgg
	tr, err := cfg.Generate(o.n)
	if err != nil {
		res.Err = err.Error()
		return res, nil, tm
	}
	pf := o.pf
	hello := serve.Hello{
		Benchmark: cfg.Name,
		Predictor: &pf,
		Warmup:    o.warmup,
		Events:    o.events,
		Window:    o.window,
		Tenant:    o.tenant,
	}
	if o.traceID != "" {
		// One trace ID per session, so (trace ID, seq) is unique across the
		// concurrent sessions when server-side dumps are fused.
		hello.TraceID = o.traceID + "-" + cfg.Name
	}
	begin := time.Now()
	c, err := serve.Dial(o.addr, hello, serve.DialOptions{
		Timeout: o.timeout,
		Retries: o.retries,
		Backoff: o.backoff,
	})
	if err != nil {
		res.Err = err.Error()
		return res, nil, tm
	}
	defer c.Close()
	if o.events {
		c.OnEvents = func(_ uint64, evs []serve.EventRec) { res.Events += len(evs) }
	}
	// The server (or router) echoes the effective trace ID — the one it
	// minted when the Hello carried none — so the client dump correlates
	// either way.
	tracer := rec.Tracer(c.Session().TraceID, c.Session().Session)
	c.OnTiming = func(t serve.FrameTiming) {
		tm.winWait = append(tm.winWait, t.WindowWait)
		tm.write = append(tm.write, t.Write)
		tm.rtt = append(tm.rtt, t.RTT)
		if tracer != nil {
			sp := tracer.Start(t.Seq)
			sp.StampAt(flight.HopClientSend, t.SentAt.UnixNano())
			sp.StampAt(flight.HopClientAck, t.AckedAt.UnixNano())
			sp.Finish()
		}
	}
	var lats []time.Duration
	sum, err := c.Stream(tr, o.frame, func(_ serve.Ack, rtt time.Duration) {
		if rtt > 0 {
			lats = append(lats, rtt)
		}
	})
	res.Elapsed = time.Since(begin)
	res.ElapsedMS = float64(res.Elapsed) / float64(time.Millisecond)
	if err != nil {
		res.Err = err.Error()
		return res, lats, tm
	}
	res.Predictor = sum.Predictor
	res.Records = sum.Records
	res.Frames = sum.Frames
	res.Executed = sum.Executed
	res.Misses = sum.Misses
	res.MissRate = sum.MissRate
	res.Drained = sum.Drained
	if sum.Router != nil {
		res.Backend = sum.Router.Backend
		res.Failovers = sum.Router.Failovers
		res.Replayed = sum.Router.ReplayedFrames
	} else if o.router {
		// -router promises cluster semantics; a summary without placement
		// info means the address is a plain ibpserved.
		res.Err = "no router placement info in summary (is the address an ibprouter?)"
	}
	return res, lats, tm
}

// percentileMS returns the p-th quantile (p in [0,1]) of ds in milliseconds
// (nearest rank on the sorted slice).
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(float64(len(sorted))*p)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// writeTraceDump serializes the client-side flight recorder in the same JSON
// shape as the /debug/flightrecorder endpoint, so ibpreport -flight fuses it
// with server-side dumps directly.
func writeTraceDump(path string, rec *flight.Recorder) error {
	b, err := json.MarshalIndent(rec.Dump(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "%-10s %-28s %10s %8s %10s %8s %9s %10s\n",
		"benchmark", "predictor", "records", "frames", "executed", "misses", "miss%", "elapsed")
	for _, r := range rep.Benchmarks {
		if r.Err != "" {
			fmt.Fprintf(w, "%-10s FAILED: %s\n", r.Benchmark, r.Err)
			continue
		}
		note := ""
		if r.Drained {
			note = " (drained)"
		}
		fmt.Fprintf(w, "%-10s %-28s %10d %8d %10d %8d %8.2f%% %9.0fms%s\n",
			r.Benchmark, r.Predictor, r.Records, r.Frames, r.Executed, r.Misses,
			r.MissRate, r.ElapsedMS, note)
	}
	fmt.Fprintf(w, "\n%d records in %s over %d conns — %.0f records/s; frame latency p50 %.2fms p95 %.2fms p99 %.2fms p999 %.2fms\n",
		rep.Records, rep.Elapsed, rep.Conns, rep.RecordsPS,
		rep.LatencyP50, rep.LatencyP95, rep.LatencyP99, rep.LatencyP999)
	if rep.Hops != nil {
		for _, name := range []string{"window-wait", "write", "rtt"} {
			h := rep.Hops[name]
			fmt.Fprintf(w, "  %-12s p50 %.3fms p95 %.3fms p99 %.3fms p999 %.3fms\n",
				name, h.P50Ms, h.P95Ms, h.P99Ms, h.P999Ms)
		}
	}
	if rep.Failovers > 0 || rep.ReplayedFrames > 0 {
		fmt.Fprintf(w, "%d failovers, %d frames replayed — every summary above is still bit-identical\n",
			rep.Failovers, rep.ReplayedFrames)
	}
}
