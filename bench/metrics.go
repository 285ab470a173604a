package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// metricDef is one metric as BENCHMARK.json names it. bound is the share of
// the baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd are the metrics a user of the system sees, printed by untraced
// runs on every workload. On the serving workloads an operation is one
// records frame, from its send to its ack; on sweep it is one
// Experiment.Run. Session latency is not among them: in a closed loop of
// fixed-size sessions it is the client count over the session rate, so it
// moves exactly with records_per_s (serve.session_* report it per layer).
//
// Every bound is 25%. On a two-vCPU shared host the spread between runs
// (IQR over median, ten runs) measured 3-9% for these metrics, at times 12%,
// and a bound must stay at least three such spreads wide.
var endToEnd = []metricDef{
	{"records_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// sweepExperiments are the experiments the sweep workload runs, in order.
var sweepExperiments = []string{"fig9", "fig11", "fig16", "fig17", "ext-ittage"}

// hop is a flight-recorder hop delta reported as a p50/p99 pair.
type hop struct{ name, unit string }

var (
	serveHops = []hop{
		{"serve.wire_in", "us"},
		{"serve.wire_out", "us"},
		{"serve.queue_wait", "us"},
		{"serve.predict", "us"},
		{"serve.ack_write", "us"},
		{"serve.client_dial", "ms"},
		{"serve.client_window_wait", "us"},
		{"serve.client_write", "us"},
	}
	clusterHops = []hop{
		{"cluster.recv_to_relay", "us"},
		{"cluster.backend_rtt", "us"},
		{"cluster.ack_relay", "us"},
	}
)

// perLayer are the metrics of single layers, printed by traced runs on every
// workload. A layer the workload does not run reports 0 there: the serving
// layers on sweep, the experiment layer on the serving workloads, the
// cluster and tuner layers everywhere but routed.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{name: name, unit: unit, better: better})
	}
	for _, id := range sweepExperiments {
		add("experiment."+id+"_s", "s", "lower")
	}
	add("experiment.branches_per_s", "1/s", "higher")
	for _, p := range corePredictors {
		add("core."+p.name+"_ns_per_branch", "ns", "lower")
		add("core."+p.name+"_allocs_per_branch", "count", "lower")
	}
	add("sim.run_ns_per_record", "ns", "lower")
	add("trace.encode_ns_per_record", "ns", "lower")
	add("trace.frame_write_ns_per_kib", "ns", "lower")
	add("trace.frame_read_ns_per_kib", "ns", "lower")
	add("trace.decode_ns_per_record", "ns", "lower")
	add("trace.ack_flush_ns_per_frame", "ns", "lower")
	add("trace.pool_hit_ratio", "ratio", "higher")
	for _, h := range append(slices.Clone(serveHops), clusterHops...) {
		add(h.name+"_p50_"+h.unit, h.unit, "lower")
		add(h.name+"_p99_"+h.unit, h.unit, "lower")
	}
	add("serve.predict_ns_per_record", "ns", "lower")
	add("serve.frame_rtt_p99_ms", "ms", "lower")
	add("serve.session_p50_ms", "ms", "lower")
	add("serve.session_p99_ms", "ms", "lower")
	add("tuner.swaps_per_rotation", "count", "lower")
	add("tuner.replayed_records_per_rotation", "count", "lower")
	add("tuner.replay_share", "ratio", "lower")
	add("go.cpu_ns_per_record", "ns", "lower")
	add("go.allocs_per_record", "count", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_pause_ms", "ms", "lower")
	add("go.peak_rss_mib", "MiB", "lower")
	add("go.layer_residual_ns_per_record", "ns", "lower")
	add("flight.overhead_pct", "%", "lower")
	return out
}()

// metricsFor returns the metrics a run prints: per-layer when traced,
// end-to-end otherwise.
func metricsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// steadyQuantile is where the end-to-end metrics summarize their samples
// (half-second windows of a serving run, passes of a sweep): throughput at
// the 90th percentile, latency at the 10th. Interference from outside the
// benchmark — other tenants of a shared host — only ever slows a sample
// down, and on a small shared host it does so for long stretches of a run:
// the median over windows still moved 5-19% between runs, this statistic
// 3-9%. A change to the code slows every sample, the fast ones included, so
// it still shows; a stall hitting fewer than a tenth of the samples does
// not.
const steadyQuantile = 0.9

// quantile returns the nearest-rank q-quantile (q in [0,1]) of xs, the zero
// value for no samples. xs is sorted in place.
func quantile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	slices.Sort(xs)
	i := int(math.Ceil(float64(len(xs))*q)) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs (mean of the middle pair for even
// lengths), 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which is
// the spread rule BENCHMARK.json's bounds are checked with; like it, two
// values extrapolate past both ends. xs is sorted in place; fewer than two
// values give that value (or 0) for both.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	slices.Sort(xs)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(3)
}

// ms and us convert a duration to fractional milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
