// Package cluster is the fault-tolerant ingress for a fleet of ibpserved
// backends. A Router speaks the same IBPT wire protocol as the serve
// package on its client side, places each session onto a backend by
// rendezvous hashing of its first record's PC (the serve package's FNV-1a
// shard pinning, lifted one level up), and keeps sessions alive across
// backend death: every records frame is journaled until acknowledged, and
// when a backend dies mid-session the router re-dials a survivor, replays
// the journaled prefix through a fresh (deterministic) predictor, and
// relays only the acks the client has not yet seen — the client observes an
// uninterrupted session whose final Summary is bit-identical to a run that
// never failed over.
//
// The membership is fixed when the Router is built. Health is tracked per
// backend with active TCP probes: a backend is Up or Down (see
// BackendState). The client side is serve's FrontEnd, the same accept loop,
// handshake and drain ibpserved runs.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
)

// Config parameterizes a Router. The zero value of every field except
// Backends is usable; withDefaults fills it.
type Config struct {
	// Backends is the membership, fixed for the Router's lifetime:
	// ibpserved addresses. At least one is required.
	Backends []string

	// BackendMetrics maps a backend's wire address to its -metrics listener
	// address. The session fan-in polls each mapped backend's /sessions to
	// build the cluster-wide view; unmapped backends simply contribute no
	// per-session detail. Optional.
	BackendMetrics map[string]string

	// Predictor is the default predictor configuration announced to clients
	// and pinned into forwarded Hellos that did not carry their own, so
	// every backend resolves the same predictor regardless of its local
	// default.
	Predictor cli.PredictorFlags

	// Limits bound the client side exactly like serve.Config's.
	serve.Limits

	// JournalBytes bounds each session's replay journal. Acknowledged frame
	// payloads are evicted oldest-first past this budget — and eviction
	// forfeits that session's lossless-failover guarantee (see trace.FrameLog).
	// Default 64 MiB; negative means unbounded.
	JournalBytes int64

	// Backend dialing: per-attempt timeout, retry count, initial backoff
	// and its cap (the serve client adds ±20% jitter). Defaults: 5s, 2,
	// 50ms, 1s.
	DialTimeout    time.Duration
	DialRetries    int
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration

	// Health probing: interval between TCP probes (±10% jitter), per-probe
	// timeout, and consecutive failures to mark a backend Down. Defaults:
	// 1s, 2s, 3.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int

	// Log receives structured router lifecycle events; nil discards them.
	Log *slog.Logger

	// Flight, when non-nil, records per-frame hop spans (receive, relay,
	// backend ack, client relay) into the flight recorder and pins a trace
	// ID into every forwarded Hello so backend spans correlate with the
	// router's. Frames are stamped either way; nil only skips the ring.
	Flight *flight.Recorder

	// TunerPolicy, when non-empty, is pinned into forwarded Hellos that did
	// not carry their own — the same fleet-consistency move as Predictor:
	// every backend a session lands on, including a failover replacement
	// replaying the journal, runs the identical tuning policy and so
	// converges to the identical swap decisions. Validated at router start
	// (see New); ignored by backends running without -tuner.
	TunerPolicy string
}

func (c Config) withDefaults() Config {
	c.Limits, c.Log = serve.ClientDefaults(c.Limits, c.Log)
	if c.JournalBytes == 0 {
		c.JournalBytes = 64 << 20
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.DialRetries < 0 {
		c.DialRetries = 0
	} else if c.DialRetries == 0 {
		c.DialRetries = 2
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 50 * time.Millisecond
	}
	if c.MaxDialBackoff <= 0 {
		c.MaxDialBackoff = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	return c
}

// Router is the cluster ingress. Create with New, run with
// Serve/ListenAndServe, stop with Shutdown (graceful: live sessions run to
// completion) or Close (hard); all of those come with the embedded
// serve.FrontEnd.
type Router struct {
	*serve.FrontEnd

	cfg Config
	m   *metrics
	log *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc

	// track is the proxy-session registry — the same session-lifecycle core
	// internal/serve uses, so the introspection plane sees router and
	// backend sessions through one surface.
	track *sessiontrack.Registry

	// backends is the membership sorted by address; fixed at New.
	backends []*backend

	probeWG sync.WaitGroup
}

// New validates the configuration and returns a Router with its health
// probers running.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if cfg.TunerPolicy != "" {
		if _, err := tuner.ParsePolicy(cfg.TunerPolicy); err != nil {
			return nil, fmt.Errorf("cluster: tuner policy: %w", err)
		}
	}
	backends, err := newMembership(cfg.Backends)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:      cfg,
		m:        newMetrics(telemetry.Default()),
		log:      cfg.Log,
		ctx:      ctx,
		cancel:   cancel,
		track:    sessiontrack.NewRegistry(sessiontrack.Options{Service: "ibprouter"}),
		backends: backends,
	}
	r.FrontEnd, err = serve.NewFrontEnd(serve.FrontEndConfig{
		Predictor: cfg.Predictor,
		Limits:    cfg.Limits,
		Pool:      trace.NewBufferPool(),
		Flight:    cfg.Flight,
		Log:       cfg.Log,
		Sessions:  r.track,
		Open:      r.open,
		// A cut also stops placement dials; a stop, the probers.
		OnCut: cancel,
		OnStop: func() {
			cancel()
			r.probeWG.Wait()
		},
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	r.updateBackendsUpGauge()
	for _, b := range r.backends {
		r.probeWG.Add(1)
		go r.probeLoop(b)
	}
	return r, nil
}

// updateBackendsUpGauge recounts router_backends_up.
func (r *Router) updateBackendsUpGauge() {
	n := 0
	for _, b := range r.backends {
		if b.placeable() {
			n++
		}
	}
	r.m.backendsUp.Set(float64(n))
}

// open runs an accepted session on the connection's goroutine: it
// registers the proxy session, authors the HelloAck, and reads client
// frames. The backend connection is the forwarder's, since placement needs
// the first records frame's PC.
func (r *Router) open(conn net.Conn, fr *trace.FrameReader, h serve.Handshake) {
	// Every backend the session lands on, failover replacements included,
	// must build the identical predictor, run the identical tuner policy,
	// and tag its spans with the router's trace ID.
	hello, pf := h.Hello, h.Predictor // a copy: the session keeps no h.Pred
	hello.Predictor = &pf
	hello.TraceID = h.TraceID
	if hello.TunerPolicy == "" {
		hello.TunerPolicy = r.cfg.TunerPolicy
	}
	// The session's context exists before Register makes the session
	// visible, so a Kill or a forced drain arriving at once can cancel it.
	ctx, cancel := context.WithCancel(r.ctx)
	sess := &proxySession{
		r:      r,
		conn:   conn,
		hello:  hello,
		window: h.Window,
		ctx:    ctx,
		cancel: cancel,
		j:      trace.NewFrameLog(r.cfg.JournalBytes),
		// A frame's span lives from its receive to its first ack, and the
		// reader refuses a frame more than window+1 past the last relayed
		// ack, so window+2 slots never wrap onto a live span.
		spans:  make([]flight.Span, h.Window+2),
		notify: make(chan struct{}, 1),
		out:    make(chan serve.OutFrame, 2*h.Window+8),
		closed: make(chan struct{}),
	}
	entry, err := r.track.Register(sess, sessiontrack.Meta{
		Kind:      sessiontrack.KindProxy,
		Benchmark: hello.Benchmark,
		Tenant:    hello.Tenant,
		Predictor: h.Pred.Name(),
		TraceID:   h.TraceID,
		Window:    h.Window,
	})
	if err != nil { // draining: no new sessions
		cancel()
		conn.Close()
		return
	}
	sess.id = entry.ID()
	sess.track = entry
	// Pin the proxy-session id into the forwarded Hello: every backend this
	// session lands on (including failover replacements) reports it as
	// Upstream, which is the fan-in's correlation key.
	sess.hello.RouterSession = sess.id
	sess.tracer = r.cfg.Flight.Tracer(h.TraceID, sess.id)
	r.m.sessionsTotal.Inc()
	r.m.sessionsActive.Add(1)

	w := &serve.Writer{
		Conn:    conn,
		Out:     sess.out,
		Stop:    sess.closed,
		Timeout: r.cfg.WriteTimeout,
		Publish: sess.publish,
		// The writer ends the session: after its final frame, a failed
		// flush or a close, which this repeats harmlessly.
		Exit: func(error) { sess.close() },
	}
	r.Go(w.Run)
	r.Go(sess.forward)

	sess.relay(serve.OutFrame{Type: serve.FrameHelloAck, Payload: r.AckHello(h, sess.id)})
	r.log.Info("session open", "session", sess.id, "benchmark", hello.Benchmark,
		"predictor", h.Pred.Name(), "window", h.Window)
	sess.readLoop(fr)
}

// unregister removes the session from the live set exactly once (keyed on
// the registry's exactly-once Unregister), returns the journal's retained
// buffers to the pool, and settles its contribution to the byte gauge.
func (r *Router) unregister(sess *proxySession) {
	if !r.track.Unregister(sess.track) {
		return
	}
	r.m.sessionsActive.Add(-1)
	sess.mu.Lock()
	bytes := sess.j.Release()
	sess.mu.Unlock()
	if bytes > 0 {
		r.m.journalBytes.Add(-float64(bytes))
	}
}

// failoverRounds is how many passes over the candidates a placement makes
// before giving up with a no-backend error.
const failoverRounds = 2

// candidatesFor returns pc's candidate backends in failover order, keeping
// only placeable ones (falling back to every backend when probes have
// everything marked dead — the dial will sort truth from pessimism).
func (r *Router) candidatesFor(pc uint32) []*backend {
	all := candidates(r.backends, pc)
	placeable := make([]*backend, 0, len(all))
	for _, b := range all {
		if b.placeable() {
			placeable = append(placeable, b)
		}
	}
	if len(placeable) > 0 {
		return placeable
	}
	return all
}

// connectSession dials pc's candidates in rendezvous order (failoverRounds
// passes) and returns the first backend that accepts the session's Hello.
// avoid is the just-failed backend, skipped on the first pass when there is
// an alternative. A deterministic backend rejection is relayed to the
// client as the session's final frame and reported as errSessionOver.
func (r *Router) connectSession(sess *proxySession, pc uint32, avoid *backend) (*backend, *serve.Client, error) {
	opts := serve.DialOptions{
		Timeout:    r.cfg.DialTimeout,
		Retries:    r.cfg.DialRetries,
		Backoff:    r.cfg.DialBackoff,
		MaxBackoff: r.cfg.MaxDialBackoff,
	}
	lastErr := errors.New("no placeable backend")
	for round := 0; round < failoverRounds; round++ {
		cands := r.candidatesFor(pc)
		for _, b := range cands {
			if sess.ctx.Err() != nil {
				return nil, nil, errSessionOver
			}
			if round == 0 && b == avoid && len(cands) > 1 {
				continue
			}
			r.m.dials.Inc()
			bc, err := serve.DialContext(sess.ctx, b.addr, sess.hello, opts)
			if err != nil {
				r.m.dialFailures.Inc()
				var we *serve.WireError
				if errors.As(err, &we) && we.Code != serve.CodeOverload {
					// Deterministic rejection (bad hello, predictor, ...):
					// every backend would refuse identically.
					sess.markDropped()
					payload, _ := json.Marshal(we)
					sess.relay(serve.OutFrame{Type: serve.FrameError, Payload: payload, Final: true})
					return nil, nil, errSessionOver
				}
				lastErr = err
				r.log.Warn("backend dial failed", "backend", b.addr, "session", sess.id, "err", err)
				continue
			}
			r.m.placements.Inc()
			b.attach(sess, bc)
			sess.setCurConn(bc)
			return b, bc, nil
		}
	}
	return nil, nil, lastErr
}

// BackendStatus is one backend's externally visible state.
type BackendStatus struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Sessions int    `json:"sessions"`
}

// BackendStatuses reports the membership sorted by address.
func (r *Router) BackendStatuses() []BackendStatus {
	out := make([]BackendStatus, len(r.backends))
	for i, b := range r.backends {
		out[i] = BackendStatus{Addr: b.addr, State: b.getState().String(), Sessions: b.sessionCount()}
	}
	return out
}
