// Package cluster is the fault-tolerant ingress for a fleet of ibpserved
// backends. A Router speaks the same IBPT wire protocol as the serve
// package on its client side, places each session onto a backend by
// consistent hashing of its first record's PC (the serve package's FNV-1a
// shard pinning, lifted one level up), and keeps sessions alive across
// backend death: every records frame is journaled until acknowledged, and
// when a backend dies mid-session the router re-dials a survivor, replays
// the journaled prefix through a fresh (deterministic) predictor, and
// relays only the acks the client has not yet seen — the client observes an
// uninterrupted session whose final Summary is bit-identical to a run that
// never failed over.
//
// Health is tracked per backend with active TCP probes driving the
// Up/Suspect/Down/Rejoining state machine (see BackendState); an
// administrative drain migrates a backend's replayable sessions away before
// membership changes.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
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
	// Backends is the initial membership: ibpserved addresses. At least one
	// is required.
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

	// Window, MaxFramePayload and MaxFrameRecords bound the client side of
	// the protocol exactly like serve.Config. Defaults: 8, 1 MiB, 8192.
	Window          int
	MaxFramePayload int
	MaxFrameRecords int

	// JournalBytes bounds each session's replay journal. Acknowledged frame
	// payloads are evicted oldest-first past this budget — and eviction
	// forfeits that session's lossless-failover guarantee (see trace.FrameLog).
	// Default 64 MiB; negative means unbounded.
	JournalBytes int64

	// ReadTimeout bounds the wait for the next client frame; WriteTimeout
	// bounds each client-side flush. Defaults: 30s each.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// Backend dialing: per-attempt timeout, retry count, initial backoff
	// and its cap (the serve client adds ±20% jitter). Defaults: 5s, 2,
	// 50ms, 1s.
	DialTimeout    time.Duration
	DialRetries    int
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration

	// FailoverRounds is how many passes over the candidate ring a placement
	// makes before giving up with a no-backend error. Default 2.
	FailoverRounds int

	// Health probing: interval between TCP probes (±10% jitter), per-probe
	// timeout, consecutive failures to mark a backend Down, and consecutive
	// successes for a Down backend to rejoin. Defaults: 1s, 2s, 3, 2.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailThreshold int
	RiseThreshold int

	// VirtualNodes is each backend's point count on the placement ring.
	// Default 64.
	VirtualNodes int

	// Log receives structured router lifecycle events; nil discards them.
	Log *slog.Logger

	// Flight, when non-nil, records per-frame hop spans (receive, relay,
	// backend ack, client relay) into the flight recorder and pins a trace
	// ID into every forwarded Hello so backend spans correlate with the
	// router's. Nil disables tracing at zero per-frame cost.
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
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MaxFramePayload <= 0 {
		c.MaxFramePayload = 1 << 20
	}
	if c.MaxFrameRecords <= 0 {
		c.MaxFrameRecords = 8192
	}
	if c.JournalBytes == 0 {
		c.JournalBytes = 64 << 20
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
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
	if c.FailoverRounds <= 0 {
		c.FailoverRounds = 2
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
	if c.RiseThreshold <= 0 {
		c.RiseThreshold = 2
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// ErrRouterClosed is returned by Serve after Shutdown or Close.
var ErrRouterClosed = errors.New("cluster: router closed")

// Router is the cluster ingress. Create with New, run with
// Serve/ListenAndServe, stop with Shutdown (graceful) or Close (hard).
type Router struct {
	cfg      Config
	m        *metrics
	predName string
	log      *slog.Logger
	pool     *trace.BufferPool // frame payload buffers, shared by all sessions

	ctx    context.Context
	cancel context.CancelFunc

	// track is the proxy-session registry — the same session-lifecycle core
	// internal/serve uses, so the introspection plane sees router and
	// backend sessions through one surface.
	track *sessiontrack.Registry

	mu       sync.Mutex
	ln       net.Listener
	backends map[string]*backend
	ring     *ring

	connWG   sync.WaitGroup
	probeWG  sync.WaitGroup
	draining atomic.Bool
}

// New validates the configuration and returns a Router with its health
// probers running.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	if err := cfg.Predictor.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: default predictor: %w", err)
	}
	pred, err := cfg.Predictor.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: default predictor: %w", err)
	}
	if cfg.TunerPolicy != "" {
		if _, err := tuner.ParsePolicy(cfg.TunerPolicy); err != nil {
			return nil, fmt.Errorf("cluster: tuner policy: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:      cfg,
		m:        newMetrics(telemetry.Default()),
		predName: pred.Name(),
		log:      cfg.Log,
		pool:     trace.NewBufferPool(),
		ctx:      ctx,
		cancel:   cancel,
		track:    sessiontrack.NewRegistry(sessiontrack.Options{Service: "ibprouter"}),
		backends: make(map[string]*backend, len(cfg.Backends)),
	}
	for _, addr := range cfg.Backends {
		if addr == "" {
			cancel()
			return nil, errors.New("cluster: empty backend address")
		}
		if _, dup := r.backends[addr]; dup {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate backend %s", addr)
		}
		// Initial members start optimistically Up; probes demote the dead
		// ones within FailThreshold intervals, and placement dials fail
		// fast against them in the meantime.
		r.backends[addr] = newBackend(addr, StateUp)
	}
	r.rebuildRing()
	r.updateBackendsUpGauge()
	for _, b := range r.backends {
		r.probeWG.Add(1)
		go r.probeLoop(b)
	}
	return r, nil
}

// rebuildRing recomputes the placement ring from the membership. Caller
// holds r.mu, or is the constructor.
func (r *Router) rebuildRing() {
	members := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		members = append(members, b)
	}
	r.ring = buildRing(members, r.cfg.VirtualNodes)
}

// updateBackendsUpGauge recounts router_backends_up.
func (r *Router) updateBackendsUpGauge() {
	r.mu.Lock()
	n := 0
	for _, b := range r.backends {
		if b.getState() == StateUp {
			n++
		}
	}
	r.mu.Unlock()
	r.m.backendsUp.Set(float64(n))
}

// ListenAndServe listens on addr and serves.
func (r *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.Serve(ln)
}

// Serve accepts client sessions on ln until Shutdown or Close, then returns
// ErrRouterClosed.
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if r.draining.Load() || r.ctx.Err() != nil {
				return ErrRouterClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if r.draining.Load() {
			conn.Close()
			continue
		}
		r.connWG.Add(1)
		go func() {
			defer r.connWG.Done()
			r.handleConn(conn)
		}()
	}
}

// Addr returns the listener address, or "" before Serve.
func (r *Router) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// writeDirect writes one frame straight to a connection (pre-session
// failures, before any writer goroutine exists).
func (r *Router) writeDirect(conn net.Conn, typ uint64, payload []byte) {
	fw := trace.NewFrameWriter(conn)
	fw.WriteFrame(typ, payload)
	conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	fw.Flush()
}

func (r *Router) rejectConn(conn net.Conn, code, msg string) {
	payload, _ := json.Marshal(&serve.WireError{Code: code, Msg: msg})
	r.writeDirect(conn, serve.FrameError, payload)
	conn.Close()
}

// handleConn is a session's reader goroutine: preamble, Hello handshake,
// router-authored HelloAck, then the client frame read loop. The backend
// connection is deferred to the forwarder — placement needs the first
// records frame's PC.
func (r *Router) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout))
	var pre [len(serve.Preamble) + 1]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		r.log.Debug("preamble read failed", "err", err)
		conn.Close()
		return
	}
	if string(pre[:len(serve.Preamble)]) != serve.Preamble || pre[len(serve.Preamble)] != serve.ProtocolVersion {
		r.log.Debug("bad preamble", "bytes", fmt.Sprintf("%x", pre))
		conn.Close()
		return
	}
	fr := trace.NewPooledFrameReader(conn, r.cfg.MaxFramePayload, r.pool)
	f, err := fr.Next()
	if err != nil {
		r.rejectConn(conn, serve.CodeBadFrame, err.Error())
		return
	}
	if f.Type != serve.FrameHello {
		f.Release()
		r.rejectConn(conn, serve.CodeBadHello, fmt.Sprintf("first frame type %#x, want hello", f.Type))
		return
	}
	var hello serve.Hello
	uerr := json.Unmarshal(f.Payload, &hello)
	f.Release()
	if uerr != nil {
		r.rejectConn(conn, serve.CodeBadHello, uerr.Error())
		return
	}
	// Resolve the predictor locally so the HelloAck can announce its name,
	// and pin the router default into the forwarded Hello: every backend a
	// failover lands on must build the identical predictor.
	pf := r.cfg.Predictor
	if hello.Predictor != nil {
		pf = *hello.Predictor
	} else {
		hello.Predictor = &pf
	}
	if hello.TunerPolicy == "" && r.cfg.TunerPolicy != "" {
		hello.TunerPolicy = r.cfg.TunerPolicy
	}
	if err := pf.Validate(); err != nil {
		r.rejectConn(conn, serve.CodeBadHello, err.Error())
		return
	}
	pred, err := pf.Build()
	if err != nil {
		r.rejectConn(conn, serve.CodeBadHello, err.Error())
		return
	}
	if hello.Warmup < 0 {
		r.rejectConn(conn, serve.CodeBadHello, "negative warmup")
		return
	}
	window := hello.Window
	if window <= 0 || window > r.cfg.Window {
		window = r.cfg.Window
	}
	// The effective trace ID is pinned into the forwarded Hello so every
	// backend the session lands on (including failover replacements) tags
	// its spans with the same ID the router uses.
	traceID := hello.TraceID
	if traceID == "" && r.cfg.Flight.Enabled() {
		traceID = r.cfg.Flight.NextTraceID()
		hello.TraceID = traceID
	}

	sess := &proxySession{
		r:      r,
		conn:   conn,
		hello:  hello,
		window: window,
		j:      trace.NewFrameLog(r.cfg.JournalBytes),
		notify: make(chan struct{}, 1),
		out:    make(chan outFrame, 2*window+8),
		closed: make(chan struct{}),
	}
	entry, rerr := r.track.Register(sess, sessiontrack.Meta{
		Kind:      sessiontrack.KindProxy,
		Benchmark: hello.Benchmark,
		Tenant:    hello.Tenant,
		Predictor: pred.Name(),
		TraceID:   traceID,
		Window:    window,
	})
	if rerr != nil { // draining: no new sessions
		conn.Close()
		return
	}
	sess.id = entry.ID()
	sess.track = entry
	// Pin the proxy-session id into the forwarded Hello: every backend this
	// session lands on (including failover replacements) reports it as
	// Upstream, which is the fan-in's correlation key.
	sess.hello.RouterSession = sess.id
	sess.tracer = r.cfg.Flight.Tracer(traceID, sess.id)
	if sess.tracer != nil {
		sess.spans = make(map[uint64]*flight.Span)
	}
	r.m.sessionsTotal.Inc()
	r.m.sessionsActive.Add(1)

	r.connWG.Add(2)
	go sess.writeLoop()
	go sess.forward()

	ackPayload, _ := json.Marshal(serve.HelloAck{
		Session:         sess.id,
		Predictor:       pred.Name(),
		Window:          window,
		MaxFramePayload: r.cfg.MaxFramePayload,
		MaxFrameRecords: r.cfg.MaxFrameRecords,
		Events:          hello.Events,
		TraceID:         traceID,
	})
	sess.relay(serve.FrameHelloAck, ackPayload, nil, nil, false)
	r.log.Info("session open", "session", sess.id, "benchmark", hello.Benchmark,
		"predictor", pred.Name(), "window", window)
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

// candidatesFor snapshots the ring and returns pc's candidate backends in
// failover order, keeping only placeable ones (falling back to the full
// non-draining walk when probes have everything marked dead — the dial will
// sort truth from pessimism).
func (r *Router) candidatesFor(pc uint32) []*backend {
	r.mu.Lock()
	ring := r.ring
	r.mu.Unlock()
	all := ring.candidates(pc)
	placeable := make([]*backend, 0, len(all))
	for _, b := range all {
		if b.placeable() {
			placeable = append(placeable, b)
		}
	}
	if len(placeable) > 0 {
		return placeable
	}
	nonDraining := all[:0]
	for _, b := range all {
		if b.getState() != StateDraining {
			nonDraining = append(nonDraining, b)
		}
	}
	return nonDraining
}

// connectSession dials pc's candidates in ring order (FailoverRounds
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
	for round := 0; round < r.cfg.FailoverRounds; round++ {
		cands := r.candidatesFor(pc)
		for _, b := range cands {
			if sess.isClosed() || r.ctx.Err() != nil {
				return nil, nil, errSessionOver
			}
			if round == 0 && b == avoid && len(cands) > 1 {
				continue
			}
			r.m.dials.Inc()
			bc, err := serve.DialContext(r.ctx, b.addr, sess.hello, opts)
			if err != nil {
				r.m.dialFailures.Inc()
				var we *serve.WireError
				if errors.As(err, &we) && we.Code != serve.CodeOverload {
					// Deterministic rejection (bad hello, predictor, ...):
					// every backend would refuse identically.
					sess.markDropped()
					payload, _ := json.Marshal(we)
					sess.relay(serve.FrameError, payload, nil, nil, true)
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
	r.mu.Lock()
	members := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		members = append(members, b)
	}
	r.mu.Unlock()
	out := make([]BackendStatus, 0, len(members))
	for _, b := range members {
		out = append(out, BackendStatus{Addr: b.addr, State: b.getState().String(), Sessions: b.sessionCount()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// SessionCount returns the number of live sessions.
func (r *Router) SessionCount() int {
	return r.track.Len()
}

// Sessions returns the router's proxy-session registry, the live set behind
// the /sessions introspection endpoints (sessiontrack.Mount).
func (r *Router) Sessions() *sessiontrack.Registry { return r.track }

// AddBackend joins addr to the membership (or un-drains it). New members
// start Rejoining; probes promote them to Up.
func (r *Router) AddBackend(addr string) error {
	if addr == "" {
		return errors.New("cluster: empty backend address")
	}
	r.mu.Lock()
	if b, ok := r.backends[addr]; ok {
		r.mu.Unlock()
		if b.getState() == StateDraining {
			b.setState(r, StateRejoining, "re-added")
			return nil
		}
		return fmt.Errorf("cluster: backend %s already present", addr)
	}
	b := newBackend(addr, StateRejoining)
	r.backends[addr] = b
	r.rebuildRing()
	r.mu.Unlock()
	r.probeWG.Add(1)
	go r.probeLoop(b)
	r.log.Info("backend added", "backend", addr)
	return nil
}

// DrainBackend excludes addr from placement and kicks its replayable
// sessions into failover; sessions whose journal already evicted finish
// where they are. The backend stays in the membership (AddBackend
// reinstates it).
func (r *Router) DrainBackend(addr string) error {
	r.mu.Lock()
	b, ok := r.backends[addr]
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown backend %s", addr)
	}
	b.setState(r, StateDraining, "administrative drain")
	b.kickSessions(true)
	r.log.Info("backend draining", "backend", addr, "sessions", b.sessionCount())
	return nil
}

// RemoveBackend drains addr and removes it from the membership.
func (r *Router) RemoveBackend(addr string) error {
	r.mu.Lock()
	b, ok := r.backends[addr]
	if ok {
		delete(r.backends, addr)
		r.rebuildRing()
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown backend %s", addr)
	}
	b.setState(r, StateDraining, "removed")
	close(b.stopProbe)
	b.kickSessions(true)
	r.updateBackendsUpGauge()
	r.log.Info("backend removed", "backend", addr)
	return nil
}

// Shutdown drains the router: the listener stops accepting, live sessions
// run to completion, then the probers stop. If ctx expires first the
// remaining sessions are cut hard and ctx.Err() is returned.
func (r *Router) Shutdown(ctx context.Context) error {
	r.draining.Store(true)
	r.track.BeginDrain() // refuse new registrations; live sessions run on
	r.mu.Lock()
	if r.ln != nil {
		r.ln.Close()
	}
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		r.closeSessions()
		<-done
	}
	r.cancel()
	r.probeWG.Wait()
	return err
}

// Close hard-stops the router: listener, sessions, probers.
func (r *Router) Close() error {
	r.draining.Store(true)
	r.track.BeginDrain()
	r.mu.Lock()
	if r.ln != nil {
		r.ln.Close()
	}
	r.mu.Unlock()
	r.closeSessions()
	r.cancel()
	r.connWG.Wait()
	r.probeWG.Wait()
	return nil
}

func (r *Router) closeSessions() {
	for _, sess := range r.track.Live() {
		sess.Kill()
	}
}
