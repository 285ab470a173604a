package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/cluster"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
)

// servingSpec is one serving workload: a fixed rotation of benchmark
// sessions that two closed-loop clients stream through in-process servers
// on loopback — the daemons' code paths minus flag parsing.
type servingSpec struct {
	name     string
	benches  []string // the rotation, one session each; nil is the full suite
	branches int      // indirect branches per session trace
	frame    int      // records per frame
	events   bool     // request per-branch event frames
	warmup   int      // Hello.Warmup
	routed   bool     // a cluster.Router over two tuned backends, else one server
}

// servingSpecs are the serving workloads. stream is few long sessions, where
// per-record cost dominates; churn is many short sessions with events on,
// where per-session and per-frame cost dominate; routed is the fleet path
// (journal, relay, backend round trip, tuner replay) that stream and churn
// bypass.
var servingSpecs = map[string]servingSpec{
	"stream": {name: "stream", benches: []string{"gcc", "perl", "eqn", "xlisp"}, branches: 100_000, frame: 2048},
	"churn":  {name: "churn", branches: 5_000, frame: 256, events: true, warmup: 100},
	"routed": {name: "routed", branches: 30_000, frame: 2048, routed: true},
}

const (
	// clients is the number of concurrent client connections. Each keeps at
	// most the granted window of frames unacknowledged and opens its next
	// session only when the previous one has returned its Summary.
	clients = 2
	// recorderCapacity bounds every flight recorder's span ring.
	recorderCapacity = 1 << 16
	// ioTimeout bounds every client dial and frame read.
	ioTimeout = 30 * time.Second
)

// inputs are a serving workload's session traces, one per rotation slot.
type inputs struct {
	names    []string
	traces   []trace.Trace
	indirect []int // indirect branches per trace
}

func makeInputs(spec servingSpec, o options) (*inputs, error) {
	cfgs, err := suite(spec.benches, o.seed)
	if err != nil {
		return nil, err
	}
	n := o.scaled(spec.branches, 50)
	in := &inputs{}
	for _, cfg := range cfgs {
		tr, err := cfg.Generate(n)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", cfg.Name, err)
		}
		in.names = append(in.names, cfg.Name)
		in.traces = append(in.traces, tr)
		in.indirect = append(in.indirect, len(tr.Indirect()))
	}
	return in, nil
}

// system is one running server set: a serve.Server, or a cluster.Router over
// two serve.Servers. A traced system has flight recorders on every server,
// the router and the benchmark's client side, and its servers and tuners
// resolve their metrics against reg.
type system struct {
	addr    string
	traced  bool
	reg     *telemetry.Registry
	client  *flight.Recorder
	router  *flight.Recorder
	servers []*flight.Recorder
	stops   []func()
}

// startSystem starts spec's servers on loopback listeners.
func startSystem(spec servingSpec, pf cli.PredictorFlags, traced bool) (sys *system, err error) {
	sys = &system{traced: traced}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if traced {
		// Servers and routers resolve their metric handles in New; the
		// registry is process-wide only while they are built.
		sys.reg = telemetry.Enable(telemetry.New())
		defer telemetry.Disable()
		sys.client = flight.NewRecorder(flight.Options{Service: "ibpbench", Capacity: recorderCapacity})
	}
	backends, shards := 1, 2
	if spec.routed {
		backends, shards = 2, 1
	}
	var addrs []string
	for i := 0; i < backends; i++ {
		cfg := serve.Config{Predictor: pf, Shards: shards}
		if traced {
			service := "ibpserved"
			if spec.routed {
				service = fmt.Sprintf("ibpserved-b%d", i)
			}
			cfg.Flight = flight.NewRecorder(flight.Options{Service: service, Capacity: recorderCapacity})
			sys.servers = append(sys.servers, cfg.Flight)
		}
		if spec.routed {
			cfg.Tuner = tuner.New(tuner.Options{Policy: tuner.DefaultPolicy(), Telemetry: sys.reg})
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return sys, err
		}
		addr, err := listen(sys, srv.Serve, srv.Close)
		if err != nil {
			srv.Close()
			return sys, err
		}
		addrs = append(addrs, addr)
	}
	sys.addr = addrs[0]
	if spec.routed {
		cfg := cluster.Config{Backends: addrs, Predictor: pf}
		if traced {
			sys.router = flight.NewRecorder(flight.Options{Service: "ibprouter", Capacity: recorderCapacity})
			cfg.Flight = sys.router
		}
		r, err := cluster.New(cfg)
		if err != nil {
			return sys, err
		}
		if sys.addr, err = listen(sys, r.Serve, r.Close); err != nil {
			r.Close()
			return sys, err
		}
	}
	return sys, nil
}

// listen binds a loopback port and serves it from a goroutine; the stop
// function it registers closes the server and waits for that goroutine.
func listen(sys *system, serveFn func(net.Listener) error, closeFn func() error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveFn(ln) // returns the closed-server error once closeFn runs
	}()
	sys.stops = append(sys.stops, func() {
		closeFn()
		<-done
	})
	return ln.Addr().String(), nil
}

// close stops the router before its backends and waits for every serving
// goroutine to exit.
func (s *system) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// dispenser hands out session jobs to the clients. Job j streams rotation
// slot j mod rot. It closes at the first rotation boundary after the
// deadline, so a phase always runs whole rotations, at least one.
type dispenser struct {
	mu       sync.Mutex
	start    int
	next     int
	rot      int
	deadline time.Time
	closed   bool
}

func newDispenser(start, rot int, deadline time.Time) *dispenser {
	return &dispenser{start: start, next: start, rot: rot, deadline: deadline}
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if done := d.next - d.start; !d.closed && done > 0 && done%d.rot == 0 && !time.Now().Before(d.deadline) {
		d.closed = true
	}
	if d.closed {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// sessionOut is one session's outcome.
type sessionOut struct {
	job      int
	slot     int
	sum      serve.Summary
	err      error
	dial     time.Duration
	elapsed  time.Duration // Dial to the returned Summary
	events   int
	evMisses int // non-warmup misses among the events
}

// windowLen is the length of the windows a phase's throughput and frame
// latency are taken in (see steady).
const windowLen = 500 * time.Millisecond

// window is what was acknowledged within one window of a phase.
type window struct {
	records int
	rtts    []time.Duration
}

// phase is what the clients measured over one run of whole rotations.
type phase struct {
	start    time.Time
	wall     time.Duration
	rots     int
	records  int
	sessions []sessionOut
	rtts     []time.Duration // frame send → ack
	wins     []window        // the whole windows before the deadline
	winWait  []time.Duration // traced systems only
	writes   []time.Duration // traced systems only
	proc     procSample
}

// runPhase streams rotations through sys from both clients until the
// dispenser closes.
func runPhase(sys *system, spec servingSpec, in *inputs, d *dispenser) phase {
	var (
		wg    sync.WaitGroup
		parts [clients]phase
	)
	p0 := sampleProc()
	start := time.Now()
	nwin := max(0, int(math.Round(float64(d.deadline.Sub(start))/float64(windowLen))))
	for c := range parts {
		parts[c].start = start
		parts[c].wins = make([]window, nwin)
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &parts[c]
			for {
				job, ok := d.take()
				if !ok {
					return
				}
				part.sessions = append(part.sessions, runSession(sys, spec, in, job, part))
			}
		}()
	}
	wg.Wait()
	ph := phase{wall: time.Since(start), proc: sampleProc().sub(p0), rots: (d.next - d.start) / d.rot,
		wins: make([]window, nwin)}
	for _, part := range parts {
		ph.sessions = append(ph.sessions, part.sessions...)
		ph.rtts = append(ph.rtts, part.rtts...)
		ph.winWait = append(ph.winWait, part.winWait...)
		ph.writes = append(ph.writes, part.writes...)
		for i, w := range part.wins {
			ph.wins[i].records += w.records
			ph.wins[i].rtts = append(ph.wins[i].rtts, w.rtts...)
		}
	}
	for _, s := range ph.sessions {
		if s.err == nil {
			ph.records += s.sum.Records
		}
	}
	return ph
}

// runSession opens one session, streams its trace and waits for the
// Summary, recording frame timings into part.
func runSession(sys *system, spec servingSpec, in *inputs, job int, part *phase) sessionOut {
	slot := job % len(in.traces)
	out := sessionOut{job: job, slot: slot}
	hello := serve.Hello{Benchmark: in.names[slot], Warmup: spec.warmup, Events: spec.events}
	if sys.traced {
		hello.TraceID = traceID(spec, job)
	}
	begin := time.Now()
	c, err := serve.Dial(sys.addr, hello, serve.DialOptions{Timeout: ioTimeout})
	out.dial = time.Since(begin)
	if err != nil {
		out.err = err
		return out
	}
	defer c.Close()
	if spec.events {
		c.OnEvents = func(_ uint64, evs []serve.EventRec) {
			out.events += len(evs)
			for _, ev := range evs {
				if ev.Miss && !ev.Warmup {
					out.evMisses++
				}
			}
		}
	}
	if sys.traced {
		tracer := sys.client.Tracer(c.Session().TraceID, c.Session().Session)
		c.OnTiming = func(t serve.FrameTiming) {
			part.winWait = append(part.winWait, t.WindowWait)
			part.writes = append(part.writes, t.Write)
			sp := tracer.Start(t.Seq)
			sp.StampAt(flight.HopClientSend, t.SentAt.UnixNano())
			sp.StampAt(flight.HopClientAck, t.AckedAt.UnixNano())
			sp.Finish()
		}
	}
	// The callbacks run on Stream's receive goroutine, which has exited by
	// the time Stream returns.
	out.sum, out.err = c.Stream(in.traces[slot], spec.frame, func(ack serve.Ack, rtt time.Duration) {
		if rtt <= 0 {
			return
		}
		part.rtts = append(part.rtts, rtt)
		if i := int(time.Since(part.start) / windowLen); i < len(part.wins) {
			part.wins[i].records += ack.Records
			part.wins[i].rtts = append(part.wins[i].rtts, rtt)
		}
	})
	out.elapsed = time.Since(begin)
	return out
}

// traceID is the flight trace ID of a traced system's session job, pinned
// into its Hello so the client, router and backend spans of a frame share it.
func traceID(spec servingSpec, job int) string {
	return fmt.Sprintf("bench-%s-%d", spec.name, job)
}

// setupServing builds the inputs and a system and runs one untimed warm-up
// rotation through it, starting at job.
func setupServing(spec servingSpec, o options, pf cli.PredictorFlags, traced bool, job int) (*inputs, *system, error) {
	in, err := makeInputs(spec, o)
	if err != nil {
		return nil, nil, err
	}
	sys, err := startSystem(spec, pf, traced)
	if err != nil {
		return nil, nil, err
	}
	warm := runPhase(sys, spec, in, newDispenser(job, len(in.traces), time.Time{}))
	for _, s := range warm.sessions {
		if s.err != nil {
			sys.close()
			return nil, nil, fmt.Errorf("warm-up session %s: %w", in.names[s.slot], s.err)
		}
	}
	return in, sys, nil
}

// runServing runs one serving workload. Untraced, it sets up by repeatSetup
// and measures one phase of o.seconds. Traced, it sets up an untraced and a
// traced system and alternates them over four phases, so the per-layer
// numbers and the tracing overhead come from the same run.
func runServing(spec servingSpec, o options, pf cli.PredictorFlags) (*report, error) {
	rep := newReport(spec.name)
	var (
		in         *inputs
		plain, obs *system
		job        int
	)
	defer func() {
		for _, s := range []*system{plain, obs} {
			if s != nil {
				s.close()
			}
		}
	}()
	setup, err := repeatSetup(o, func() (time.Duration, error) {
		if plain != nil {
			plain.close()
			plain, in = nil, nil
			runtime.GC() // outside the timed set-up: each one starts from a clean heap
		}
		begin := time.Now()
		var err error
		if in, plain, err = setupServing(spec, o, pf, false, job); err != nil {
			return 0, err
		}
		job += len(in.traces)
		return time.Since(begin), nil
	})
	if err != nil {
		return nil, err
	}
	var obsBase telemetry.Snapshot
	if o.traced {
		if _, obs, err = setupServing(spec, o, pf, true, job); err != nil {
			return nil, err
		}
		job += len(in.traces)
		obsBase = obs.reg.Snapshot()
	}

	var untraced, traced []phase
	heap := watchHeap()
	if !o.traced {
		untraced = append(untraced, measure(plain, spec, in, &job, o.seconds))
	} else {
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				untraced = append(untraced, measure(plain, spec, in, &job, o.seconds/4))
			} else {
				traced = append(traced, measure(obs, spec, in, &job, o.seconds/4))
			}
		}
	}
	peakHeap := heap.peakMiB()

	refs, err := newReferences(in, spec, pf)
	if err != nil {
		return nil, err
	}
	u, t := merge(untraced), merge(traced)
	for _, s := range slices.Concat(u.sessions, t.sessions) {
		rep.attempted++
		if s.err != nil {
			rep.failed++
			rep.problem("session %d (%s): %v", s.job, in.names[s.slot], s.err)
			continue
		}
		refs.check(rep, s)
	}

	if !o.traced {
		rep.values["records_per_s"], rep.values["op_p50_ms"], rep.values["op_p90_ms"] = u.steady()
		rep.values["peak_heap_mib"] = peakHeap
		rep.values["setup_s"] = setup
		rep.note("phase %d rotations, %d sessions, %d records in %.3fs (%.1f cpu ns/record); %d windows of %v, %d frame samples (%d per window, %d beyond its p90)",
			u.rots, len(u.sessions), u.records, u.wall.Seconds(), ratio(float64(u.proc.cpu), float64(u.records)), len(u.wins), windowLen,
			len(u.rtts), len(u.rtts)/max(1, len(u.wins)), len(u.rtts)/max(1, len(u.wins))/10)
		if len(u.wins) > 0 {
			var rates []float64
			for _, w := range u.wins {
				rates = append(rates, float64(w.records)/windowLen.Seconds())
			}
			rep.note("records/s across windows: min %.4g, median %.4g, p90 %.4g, max %.4g",
				slices.Min(rates), median(slices.Clone(rates)), quantile(rates, 0.9), slices.Max(rates))
		}
		return rep, nil
	}
	if err := servingLayers(rep, spec, o, in, u, t, obs, obsBase, refs); err != nil {
		return nil, err
	}
	return rep, nil
}

// measure runs one phase of whole rotations for the given seconds, advancing
// the job counter past it.
func measure(sys *system, spec servingSpec, in *inputs, job *int, seconds float64) phase {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	d := newDispenser(*job, len(in.traces), deadline)
	ph := runPhase(sys, spec, in, d)
	*job = d.next
	return ph
}

// merge sums phases into one.
func merge(ps []phase) phase {
	var m phase
	for _, p := range ps {
		m.wall += p.wall
		m.rots += p.rots
		m.records += p.records
		m.sessions = append(m.sessions, p.sessions...)
		m.rtts = append(m.rtts, p.rtts...)
		m.wins = append(m.wins, p.wins...)
		m.winWait = append(m.winWait, p.winWait...)
		m.writes = append(m.writes, p.writes...)
		m.proc = m.proc.add(p.proc)
	}
	return m
}

// steady returns the phase's end-to-end numbers — records acknowledged
// per second, and the p50 and p90 frame round trip in milliseconds — each
// taken per window and summarized across windows by steadyQuantile. A phase
// too short for a whole window counts as one window.
func (p phase) steady() (recordsPerS, p50, p90 float64) {
	if len(p.wins) == 0 {
		return ratio(float64(p.records), p.wall.Seconds()), ms(quantile(p.rtts, 0.50)), ms(quantile(p.rtts, 0.90))
	}
	var rs, a, b []float64
	for _, w := range p.wins {
		rs = append(rs, float64(w.records)/windowLen.Seconds())
		a = append(a, ms(quantile(w.rtts, 0.50)))
		b = append(b, ms(quantile(w.rtts, 0.90)))
	}
	return quantile(rs, steadyQuantile), quantile(a, 1-steadyQuantile), quantile(b, 1-steadyQuantile)
}

// references holds the local sim.Run result every session Summary must
// equal, per rotation slot and predictor.
type references struct {
	in     *inputs
	spec   servingSpec
	byName map[string]cli.PredictorFlags
	base   string
	res    map[refKey]sim.Result
	// baseNS is the time the base-predictor references took, over
	// baseRecords records: the sim kernel's cost on this workload's traces.
	baseNS      time.Duration
	baseRecords int
}

type refKey struct {
	slot int
	pred string
}

// newReferences runs the default predictor over every slot's trace. Tuned
// sessions that end on the tuner's target are checked against that target
// run from record one, the swap's bit-reproducibility contract.
func newReferences(in *inputs, spec servingSpec, pf cli.PredictorFlags) (*references, error) {
	base, err := pf.Build()
	if err != nil {
		return nil, err
	}
	r := &references{in: in, spec: spec, base: base.Name(), res: make(map[refKey]sim.Result),
		byName: map[string]cli.PredictorFlags{base.Name(): pf}}
	if spec.routed {
		target := tuner.DefaultPolicy().Target
		p, err := target.Build()
		if err != nil {
			return nil, err
		}
		r.byName[p.Name()] = target
	}
	for slot := range in.traces {
		begin := time.Now()
		if _, err := r.get(slot, r.base); err != nil {
			return nil, err
		}
		r.baseNS += time.Since(begin)
		r.baseRecords += len(in.traces[slot])
	}
	return r, nil
}

func (r *references) get(slot int, pred string) (sim.Result, error) {
	k := refKey{slot, pred}
	if res, ok := r.res[k]; ok {
		return res, nil
	}
	pf, ok := r.byName[pred]
	if !ok {
		return sim.Result{}, fmt.Errorf("summary names predictor %q, neither the default nor the tuner target", pred)
	}
	p, err := pf.Build()
	if err != nil {
		return sim.Result{}, err
	}
	res := sim.Run(p, r.in.traces[slot], sim.Options{Warmup: r.spec.warmup})
	r.res[k] = res
	return res, nil
}

// check compares one session's Summary (and events, and router placement)
// with the references.
func (r *references) check(rep *report, s sessionOut) {
	name := r.in.names[s.slot]
	fail := func(format string, args ...any) {
		rep.problem("session %d (%s): %s", s.job, name, fmt.Sprintf(format, args...))
	}
	want, err := r.get(s.slot, s.sum.Predictor)
	if err != nil {
		fail("%v", err)
		return
	}
	sum := s.sum
	if sum.Drained || sum.Records != len(r.in.traces[s.slot]) || sum.Executed != want.Executed ||
		sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
		fail("summary records=%d executed=%d misses=%d noPrediction=%d drained=%v, want records=%d executed=%d misses=%d noPrediction=%d",
			sum.Records, sum.Executed, sum.Misses, sum.NoPrediction, sum.Drained,
			len(r.in.traces[s.slot]), want.Executed, want.Misses, want.NoPrediction)
	}
	if r.spec.events && (s.events != r.in.indirect[s.slot] || s.evMisses != sum.Misses) {
		fail("%d events with %d non-warmup misses, want %d events and %d misses",
			s.events, s.evMisses, r.in.indirect[s.slot], sum.Misses)
	}
	if r.spec.routed {
		switch {
		case sum.Router == nil:
			fail("summary carries no router placement")
		case sum.Router.Failovers != 0 || sum.Router.ReplayedFrames != 0:
			fail("%d failovers, %d replayed frames on a healthy cluster", sum.Router.Failovers, sum.Router.ReplayedFrames)
		}
	}
}
