package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// corePredictors are the configurations the core.* probes time, as changes
// to the daemons' default predictor flags.
var corePredictors = []struct {
	name string
	set  func(*cli.PredictorFlags)
}{
	{"btb-2bc", func(f *cli.PredictorFlags) { f.Pred = "btb-2bc" }},
	{"2lev-unbounded", func(*cli.PredictorFlags) {}},
	{"2lev-assoc4-4096", func(f *cli.PredictorFlags) { f.Table, f.Entries = "assoc4", 4096 }},
	{"2lev-exact", func(f *cli.PredictorFlags) { f.Path, f.Precision, f.Table = 6, 0, "exact" }},
	{"fullassoc-1024", func(f *cli.PredictorFlags) { f.Table, f.Entries = "fullassoc", 1024 }},
	{"hybrid-3.1-assoc4-2048", func(f *cli.PredictorFlags) { f.Hybrid, f.Table, f.Entries = "3,1", "assoc4", 2048 }},
	{"ittage-8x512-min2", func(f *cli.PredictorFlags) { f.Pred = "ittage:8,512,2" }},
}

// procSample is a reading of the process's CPU time and Go runtime
// allocation and GC counters.
type procSample struct {
	cpu     time.Duration // user + system
	mallocs uint64
	gcs     uint64
	pause   time.Duration
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		gcs:     uint64(m.NumGC),
		pause:   time.Duration(m.PauseTotalNs),
	}
}

func (a procSample) sub(b procSample) procSample {
	return procSample{a.cpu - b.cpu, a.mallocs - b.mallocs, a.gcs - b.gcs, a.pause - b.pause}
}

func (a procSample) add(b procSample) procSample {
	return procSample{a.cpu + b.cpu, a.mallocs + b.mallocs, a.gcs + b.gcs, a.pause + b.pause}
}

// goLayers reports the go.* metrics of an untraced phase that did records
// units of work.
func goLayers(rep *report, p procSample, records int) {
	rep.values["go.cpu_ns_per_record"] = ratio(float64(p.cpu), float64(records))
	rep.values["go.allocs_per_record"] = ratio(float64(p.mallocs), float64(records))
	rep.values["go.gc_cycles"] = float64(p.gcs)
	rep.values["go.gc_pause_ms"] = ms(p.pause)
	rep.values["go.peak_rss_mib"] = peakRSSMiB()
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapWatch records the largest live heap any garbage collection finds
// while it runs: the memory the workload needs, its inputs included. Peak
// RSS adds to that whatever garbage the collector's pacing let pile up
// first, which on one P moved it by up to 25% between runs.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

// watchHeap collects garbage, so the first reading is the heap the measured
// phase starts from rather than a stale one from the set-up, and starts the
// watch.
func watchHeap() *heapWatch {
	runtime.GC()
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond) // shorter than any GC cycle of the workloads
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMiB stops the watch and returns the largest live heap it saw.
func (h *heapWatch) peakMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// coreLayers times Predict+Update for every core predictor over eqn: each
// repetition builds a fresh predictor and runs the trace once, the way a
// session or a sweep cell uses one.
func coreLayers(rep *report, o options) error {
	cfgs, err := suite([]string{"eqn"}, o.seed)
	if err != nil {
		return err
	}
	full, err := cfgs[0].Generate(o.scaled(50_000, 500))
	if err != nil {
		return err
	}
	tr := full.Indirect()
	budget := time.Duration(float64(100*time.Millisecond) * o.scale)
	for _, cp := range corePredictors {
		pf := defaultPredictor()
		cp.set(&pf)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		begin := time.Now()
		branches := 0
		for branches == 0 || time.Since(begin) < budget {
			p, err := pf.Build()
			if err != nil {
				return fmt.Errorf("core probe %s: %w", cp.name, err)
			}
			for _, r := range tr {
				p.Predict(r.PC)
				p.Update(r.PC, r.Target)
			}
			branches += len(tr)
		}
		elapsed := time.Since(begin)
		runtime.ReadMemStats(&m1)
		rep.values["core."+cp.name+"_ns_per_branch"] = ratio(float64(elapsed), float64(branches))
		rep.values["core."+cp.name+"_allocs_per_branch"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(branches))
	}
	return nil
}

// codecProbe is the wire codec's cost on one workload's frames.
type codecProbe struct {
	encodeNS, decodeNS float64 // per record
	writeNS, readNS    float64 // per KiB of payload
	ackFlushNS         float64 // per frame
	kibPerRecord       float64
	records, frames    int
}

// probeCodec cuts the traces into frames of the workload's size and times
// each step of the records path in isolation: AppendRecords, FrameWriter
// (CRC included), the pooled FrameReader, RecordIter.NextBatch, and one
// FrameBatcher ack flush per frame to io.Discard.
func probeCodec(traces []trace.Trace, frame int, o options) codecProbe {
	limit := o.scaled(4_000_000, 1000)
	var chunks []trace.Trace
	var c codecProbe
	for _, tr := range traces {
		for i := 0; i < len(tr) && c.records < limit; i += frame {
			ch := tr[i:min(i+frame, len(tr))]
			chunks = append(chunks, ch)
			c.records += len(ch)
		}
	}
	c.frames = len(chunks)

	buf := make([]byte, 0, frame*16+16)
	begin := time.Now()
	for _, ch := range chunks {
		buf = trace.AppendRecords(buf[:0], ch)
	}
	c.encodeNS = ratio(float64(time.Since(begin)), float64(c.records))

	payloads := make([][]byte, len(chunks))
	size := 0
	for i, ch := range chunks {
		payloads[i] = trace.AppendRecords(nil, ch)
		size += len(payloads[i])
	}
	kib := float64(size) / 1024
	c.kibPerRecord = kib / float64(c.records)

	var stream bytes.Buffer
	stream.Grow(size + 16*len(payloads))
	fw := trace.NewFrameWriter(&stream)
	begin = time.Now()
	for _, p := range payloads {
		fw.WriteFrame(0x11, p) // a bytes.Buffer never fails
	}
	fw.Flush()
	c.writeNS = float64(time.Since(begin)) / kib

	fr := trace.NewPooledFrameReader(bytes.NewReader(stream.Bytes()), 1<<20, trace.NewBufferPool())
	begin = time.Now()
	for {
		f, err := fr.Next()
		if err != nil {
			break // io.EOF after the last frame
		}
		f.Release()
	}
	c.readNS = float64(time.Since(begin)) / kib

	var batch [256]trace.Record
	begin = time.Now()
	for _, p := range payloads {
		it, err := trace.NewRecordIter(p, frame)
		if err != nil {
			panic(err) // the payload was encoded above
		}
		for it.NextBatch(batch[:]) > 0 {
		}
	}
	c.decodeNS = ratio(float64(time.Since(begin)), float64(c.records))

	var fb trace.FrameBatcher
	ack := make([]byte, 0, 7*binary.MaxVarintLen64)
	begin = time.Now()
	for i, ch := range chunks {
		ack = ack[:0]
		for _, v := range []uint64{uint64(i + 1), uint64(len(ch)), uint64(len(ch)), 0, uint64(i * len(ch)), 0, 0} {
			ack = binary.AppendUvarint(ack, v)
		}
		fb.Add(0x21, ack, nil)
		fb.Flush(io.Discard)
	}
	c.ackFlushNS = ratio(float64(time.Since(begin)), float64(c.frames))
	return c
}

// spanKey identifies one frame across the client, router and backend
// recorders.
type spanKey struct {
	traceID string
	seq     uint64
}

// spansOf indexes a recorder's spans of the kept trace IDs.
func spansOf(rec *flight.Recorder, keep map[string]bool) map[spanKey]flight.SpanRecord {
	out := make(map[spanKey]flight.SpanRecord)
	for _, sp := range rec.Spans() {
		if keep[sp.TraceID] {
			out[spanKey{sp.TraceID, sp.Seq}] = sp
		}
	}
	return out
}

// hopSamples joins the traced system's spans by (trace ID, seq) and returns
// every hop delta by metric name, plus the predictor walk's total time and
// record count. Only frames of the kept trace IDs count.
func hopSamples(sys *system, keep map[string]bool) (samples map[string][]time.Duration, predictNS time.Duration, predictRecs int) {
	samples = make(map[string][]time.Duration)
	delta := func(name string, from, to int64) {
		if from > 0 && to > 0 {
			samples[name] = append(samples[name], time.Duration(to-from))
		}
	}
	clientSpans := spansOf(sys.client, keep)
	routerSpans := spansOf(sys.router, keep)
	for _, rec := range sys.servers {
		for k, sp := range spansOf(rec, keep) {
			h := sp.Hops
			delta("serve.queue_wait", h[flight.HopServerEnqueue], h[flight.HopServerDequeue])
			delta("serve.predict", h[flight.HopServerDequeue], h[flight.HopServerPredict])
			delta("serve.ack_write", h[flight.HopServerPredict], h[flight.HopServerAckWrite])
			if h[flight.HopServerDequeue] > 0 && h[flight.HopServerPredict] > 0 {
				predictNS += time.Duration(h[flight.HopServerPredict] - h[flight.HopServerDequeue])
				predictRecs += sp.Records
			}
			// The backend's upstream is the router when there is one.
			if sys.router != nil {
				up := routerSpans[k].Hops
				delta("serve.wire_in", up[flight.HopRouterRelay], h[flight.HopServerRecv])
				delta("serve.wire_out", h[flight.HopServerAckWrite], up[flight.HopRouterAckRecv])
			} else {
				up := clientSpans[k].Hops
				delta("serve.wire_in", up[flight.HopClientSend], h[flight.HopServerRecv])
				delta("serve.wire_out", h[flight.HopServerAckWrite], up[flight.HopClientAck])
			}
		}
	}
	for _, sp := range routerSpans {
		h := sp.Hops
		delta("cluster.recv_to_relay", h[flight.HopRouterRecv], h[flight.HopRouterRelay])
		delta("cluster.backend_rtt", h[flight.HopRouterRelay], h[flight.HopRouterAckRecv])
		delta("cluster.ack_relay", h[flight.HopRouterAckRecv], h[flight.HopRouterAckRelay])
	}
	return samples, predictNS, predictRecs
}

// servingLayers fills the per-layer metrics of a traced serving run from
// the untraced phases u, the traced phases t (run on obs), the layer probes
// and the flight-recorder spans. obsBase is obs's telemetry right after its
// warm-up, so counters cover the measured phases only.
func servingLayers(rep *report, spec servingSpec, o options, in *inputs, u, t phase, obs *system, obsBase telemetry.Snapshot, refs *references) error {
	for _, m := range perLayer {
		rep.values[m.name] = 0
	}
	if err := coreLayers(rep, o); err != nil {
		return err
	}
	simNS := ratio(float64(refs.baseNS), float64(refs.baseRecords))
	rep.values["sim.run_ns_per_record"] = simNS
	c := probeCodec(in.traces, spec.frame, o)
	rep.values["trace.encode_ns_per_record"] = c.encodeNS
	rep.values["trace.frame_write_ns_per_kib"] = c.writeNS
	rep.values["trace.frame_read_ns_per_kib"] = c.readNS
	rep.values["trace.decode_ns_per_record"] = c.decodeNS
	rep.values["trace.ack_flush_ns_per_frame"] = c.ackFlushNS
	snap := obs.reg.Snapshot().Delta(obsBase)
	hits := snap["serve_pool_hits"]
	rep.values["trace.pool_hit_ratio"] = ratio(hits, hits+snap["serve_pool_misses"])

	keep := make(map[string]bool, len(t.sessions))
	var dials []time.Duration
	for _, s := range t.sessions {
		keep[traceID(spec, s.job)] = true
		dials = append(dials, s.dial)
	}
	samples, predictNS, predictRecs := hopSamples(obs, keep)
	samples["serve.client_dial"] = dials
	samples["serve.client_window_wait"] = t.winWait
	samples["serve.client_write"] = t.writes
	for _, h := range append(append([]hop(nil), serveHops...), clusterHops...) {
		ds := samples[h.name]
		conv := us
		if h.unit == "ms" {
			conv = ms
		}
		rep.values[h.name+"_p50_"+h.unit] = conv(quantile(ds, 0.50))
		rep.values[h.name+"_p99_"+h.unit] = conv(quantile(ds, 0.99))
		if len(ds) > 0 {
			rep.note("%s samples %d", h.name, len(ds))
		}
	}
	rep.values["serve.predict_ns_per_record"] = ratio(float64(predictNS), float64(predictRecs))
	sessTimes := make([]time.Duration, 0, len(u.sessions))
	for _, s := range u.sessions {
		sessTimes = append(sessTimes, s.elapsed)
	}
	rep.values["serve.frame_rtt_p99_ms"] = ms(quantile(u.rtts, 0.99))
	rep.values["serve.session_p50_ms"] = ms(quantile(sessTimes, 0.50))
	rep.values["serve.session_p99_ms"] = ms(quantile(sessTimes, 0.99))
	rep.note("frame rtt samples %d, session samples %d", len(u.rtts), len(sessTimes))

	if spec.routed {
		rots := float64(t.rots)
		replayed := snap["tuner_replayed_records_total"]
		rep.values["tuner.swaps_per_rotation"] = ratio(snap["tuner_swaps_total"], rots)
		rep.values["tuner.replayed_records_per_rotation"] = ratio(replayed, rots)
		rep.values["tuner.replay_share"] = ratio(replayed, float64(t.records))
		tuned := 0
		for _, s := range t.sessions {
			if s.sum.Predictor != refs.base {
				tuned++
			}
		}
		rep.note("%g swaps, %d of %d sessions ended on the tuner target", snap["tuner_swaps_total"], tuned, len(t.sessions))
		failovers, evicted := snap["router_failovers_total"], snap["router_journal_evicted_frames_total"]
		rep.note("cluster.failovers %g cluster.journal_evicted_frames %g over %d traced rotations", failovers, evicted, t.rots)
		if failovers != 0 || evicted != 0 {
			rep.problem("%g failovers and %g evicted journal frames on a healthy cluster", failovers, evicted)
		}
	}

	goLayers(rep, u.proc, u.records)
	// The ladder: every layer a record crosses on its way through the
	// stack, from the isolated probes. A routed record crosses two wire
	// hops (client → router → backend) and its ack two flushes.
	wire := 1.0
	if spec.routed {
		wire = 2
	}
	ladder := c.encodeNS + c.decodeNS + simNS +
		wire*(c.writeNS+c.readNS)*c.kibPerRecord + wire*c.ackFlushNS/float64(spec.frame)
	rep.values["go.layer_residual_ns_per_record"] = rep.values["go.cpu_ns_per_record"] - ladder
	rep.note("ladder %.1f ns/record of %.1f cpu ns/record", ladder, rep.values["go.cpu_ns_per_record"])

	plain, _, _ := u.steady()
	traced, _, _ := t.steady()
	rep.values["flight.overhead_pct"] = 100 * ratio(plain-traced, plain)

	if o.dumpDir == "" {
		return nil
	}
	// The dumps hold the last traced rotation: every session of it, whole,
	// in every process — a timeline small enough to open.
	last := make(map[string]bool)
	rot := len(in.traces)
	lastStart := 0
	for _, s := range t.sessions {
		lastStart = max(lastStart, s.job/rot*rot)
	}
	for _, s := range t.sessions {
		if s.job >= lastStart {
			last[traceID(spec, s.job)] = true
		}
	}
	return writeDumps(o.dumpDir, spec.name, append([]*flight.Recorder{obs.client, obs.router}, obs.servers...), last)
}

// writeDumps writes each recorder's spans of the kept trace IDs in the
// /debug/flightrecorder dump shape, one file per service, for ibpreport
// -flight.
func writeDumps(dir, workload string, recs []*flight.Recorder, keep map[string]bool) error {
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		d := rec.Dump()
		d.Spans = slices.DeleteFunc(d.Spans, func(sp flight.SpanJSON) bool { return !keep[sp.TraceID] })
		b, err := json.Marshal(d)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, workload+"-"+d.Service+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
