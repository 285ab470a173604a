package serve

import (
	"fmt"
	"log/slog"
	"runtime"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
)

// Config parameterizes a Server. The zero value is usable: every limit
// defaults to a production-shaped value in New.
type Config struct {
	// Predictor is the server's default predictor configuration; a session
	// Hello may override it per session.
	Predictor cli.PredictorFlags
	// Shards caps how many sessions predict at once. Each session runs its
	// predictor on its own connection goroutine, one frame at a time and in
	// order — the property that keeps server-side miss counts bit-identical
	// to a local sim.Run — holding one of Shards slots while it predicts.
	// Defaults to GOMAXPROCS.
	Shards int
	// Limits bound the client side: the frame window, frame sizes and the
	// read and write timeouts, the same on ibpserved and ibprouter.
	Limits
	// Tag labels this instance in the session introspection plane (the
	// /sessions view's tag field); usually the daemon's -tag flag.
	Tag string
	// Log receives structured session lifecycle events; nil discards them.
	Log *slog.Logger
	// Flight, when non-nil, records per-frame hop spans into a bounded ring
	// (the flight recorder) and enables slow-frame SLO logging. Frames are
	// stamped either way; nil only skips the ring.
	Flight *flight.Recorder
	// Tuner, when non-nil, attaches the per-session adaptation plane: each
	// non-events session gets a policy state machine that can hot-swap its
	// predictor at a frame boundary (see internal/tuner). Nil disables
	// tuning entirely: the per-record cost is one nil check, no allocations.
	Tuner *tuner.Tuner
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	c.Limits, c.Log = ClientDefaults(c.Limits, c.Log)
	return c
}

// Server is a streaming prediction service. Create with New, run with
// Serve/ListenAndServe, stop with Shutdown (graceful drain) or Close; all
// of those come with the embedded FrontEnd, which Server shares with the
// cluster router.
type Server struct {
	*FrontEnd

	cfg  Config
	m    *metrics
	pool *trace.BufferPool // frame payload buffers, shared by all readers

	// slots holds one token per session predicting a frame; its capacity
	// is Config.Shards.
	slots chan struct{}

	// track is the session-lifecycle core: it owns session id allocation,
	// the live set, the drain handshake, and every per-session stat the
	// introspection plane serves. The router's proxy sessions use the same
	// registry type — one session-management core.
	track *sessiontrack.Registry
}

// New validates the configuration and returns an idle Server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		m:     newMetrics(telemetry.Default()),
		pool:  trace.NewBufferPool(),
		slots: make(chan struct{}, cfg.Shards),
		track: sessiontrack.NewRegistry(sessiontrack.Options{Service: "ibpserved", Tag: cfg.Tag}),
	}
	fe, err := NewFrontEnd(FrontEndConfig{
		Predictor: cfg.Predictor,
		Policy:    cfg.Tuner.DefaultPolicy(),
		Build:     true,
		Limits:    cfg.Limits,
		Pool:      s.pool,
		Flight:    cfg.Flight,
		Log:       cfg.Log,
		Sessions:  s.track,
		Open:      s.open,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.FrontEnd = fe
	s.pool.OnStats(func() { s.m.poolHits.Inc() }, func() { s.m.poolMisses.Inc() })
	return s, nil
}

// open registers an accepted session, batches its HelloAck, and runs the
// session — its reads, its predictions and its replies — on the
// connection's goroutine.
func (s *Server) open(c *Conn, h Handshake) {
	sess := newSession(s, c.Conn, h.Pred, h.Hello)
	meta := sessiontrack.Meta{
		Kind:      sessiontrack.KindServe,
		Benchmark: h.Hello.Benchmark,
		Tenant:    h.Hello.Tenant,
		Predictor: sess.predName,
		TraceID:   h.TraceID,
		Window:    h.Window,
		Upstream:  h.Hello.RouterSession,
	}
	if ts, ok := h.Pred.(core.TableStatser); ok {
		meta.Tables = ts.TableStats() // baseline for /sessions/{id} deltas
	}
	// The session holds its entry, tracer and tuner before Register makes
	// it visible: a Kill or a drain may find it at once, and unregister
	// reads them.
	entry := s.track.NewSession(sess, meta)
	sess.id = entry.ID()
	sess.track = entry
	sess.tracer = s.cfg.Flight.Tracer(h.TraceID, sess.id)
	// Events sessions are not tuned: event frames already shipped under the
	// old predictor could not be reconciled with a swap's replayed
	// accounting, so the deterministic choice is to skip them.
	if s.cfg.Tuner != nil && !sess.events {
		sess.tun = s.cfg.Tuner.Session(h.Policy, h.Predictor, entry)
		if sess.tun != nil {
			sess.kern.SetMissObserver(sess.tun)
			sess.hist = trace.NewFrameLog(int64(h.Policy.MaxHistoryBytes))
		}
	}
	s.m.sessionsActive.Add(1)
	if err := s.track.Register(entry); err != nil {
		s.cfg.Log.Debug("session open failed", "err", err) // draining
		sess.end(0, nil)
		return
	}
	s.m.sessionsTotal.Inc()

	// The HelloAck leaves with the flush before the session's first read
	// system call.
	sess.w.Add(FrameHelloAck, s.AckHello(h, sess.id), nil)
	c.flush = sess.w.Flush
	s.cfg.Log.Info("session open", "session", sess.id, "benchmark", h.Hello.Benchmark,
		"predictor", sess.predName, "events", sess.events, "window", h.Window)
	sess.readLoop(c.Frames)
	// The session was the tuner history's only user, so it goes now,
	// however the session ended.
	if sess.hist != nil {
		sess.hist.Release()
	}
}

// unregister removes the session from the live set. The registry's
// exactly-once Unregister keys the gauge decrement, so no combination of
// exit paths (summary, fail, hard close, drain race) can decrement twice or
// leave serve_sessions_active elevated.
func (s *Server) unregister(sess *session) {
	if s.track.Unregister(sess.track) {
		s.m.sessionsActive.Add(-1)
		sess.tun.Close()
	}
}
