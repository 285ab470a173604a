package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// Shards is the number of predictor worker goroutines. Sessions are
	// pinned to one shard (chosen by PC hash of the session's first record)
	// so a session's records are processed in order — the property that
	// keeps server-side miss counts bit-identical to a local sim.Run.
	// Defaults to GOMAXPROCS.
	Shards int
	// QueueDepth is each shard's bounded frame queue. A full queue blocks
	// the session readers feeding it, pushing backpressure into the TCP
	// stream. Defaults to 64.
	QueueDepth int
	// Window is the per-session frame window: the most records frames a
	// client may keep unacknowledged. Defaults to 8.
	Window int
	// MaxFramePayload bounds a frame's payload bytes; MaxFrameRecords
	// bounds a records frame's record count. Defaults: 1 MiB, 8192.
	MaxFramePayload int
	MaxFrameRecords int
	// ReadTimeout bounds the wait for the next client frame; WriteTimeout
	// bounds each response flush. Defaults: 30s each.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Tag labels this instance in the session introspection plane (the
	// /sessions view's tag field); usually the daemon's -tag flag.
	Tag string
	// Log receives structured session lifecycle events; nil discards them.
	Log *slog.Logger
	// Flight, when non-nil, records per-frame hop spans into a bounded ring
	// (the flight recorder) and enables slow-frame SLO logging. Nil disables
	// tracing entirely: the per-frame cost is one nil check, no allocations.
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MaxFramePayload <= 0 {
		c.MaxFramePayload = 1 << 20
	}
	if c.MaxFrameRecords <= 0 {
		c.MaxFrameRecords = 8192
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is a sharded streaming prediction service. Create with New, run
// with Serve/ListenAndServe, stop with Shutdown (graceful drain) or Close.
type Server struct {
	cfg  Config
	m    *metrics
	pool *trace.BufferPool // frame payload buffers, shared by all readers
	// histPool recycles tuner history arena blocks across sessions; blocks
	// are taken and returned only on shard workers (see session.dropHistory).
	histPool sync.Pool

	shards  []*shard
	shardWG sync.WaitGroup

	// track is the session-lifecycle core (ROADMAP item 5): it owns session
	// id allocation, the live set, the drain handshake, and every
	// per-session stat the introspection plane serves. The router's proxy
	// sessions use the same registry type — one session-management core.
	track *sessiontrack.Registry

	mu sync.Mutex
	ln net.Listener

	connWG      sync.WaitGroup
	draining    atomic.Bool
	hardStop    chan struct{} // closed by Close/forced shutdown
	stopOnce    sync.Once
	workersOnce sync.Once
}

// job is one unit of shard work: a records frame to simulate, or a
// done/drain sentinel asking for the session's final summary. The chunk is
// the borrowed frame payload (backed by buf when pooled); whoever consumes
// the job — the worker, or the drain paths around it — releases buf.
type job struct {
	sess   *session
	seq    uint64
	chunk  []byte           // record chunk, seq already peeled off
	buf    *trace.PooledBuf // backing pooled buffer; nil for sentinels
	recvNS int64            // unix ns the reader pulled the frame off the wire
	span   *flight.Span     // frame span; nil when tracing is off
	done   bool             // client sent Done
	drain  bool             // server drain ended the stream
}

// shard is one predictor worker and its bounded queue. All jobs of a session
// land on the same shard in arrival order.
type shard struct {
	id    int
	queue chan job
}

// New validates the configuration and returns a Server with its shard
// workers running (idle until sessions arrive).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Predictor.Validate(); err != nil {
		return nil, err
	}
	if _, err := cfg.Predictor.Build(); err != nil {
		return nil, fmt.Errorf("serve: default predictor: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		m:        newMetrics(telemetry.Default()),
		pool:     trace.NewBufferPool(),
		track:    sessiontrack.NewRegistry(sessiontrack.Options{Service: "ibpserved", Tag: cfg.Tag}),
		hardStop: make(chan struct{}),
	}
	s.pool.OnStats(func() { s.m.poolHits.Inc() }, func() { s.m.poolMisses.Inc() })
	s.histPool.New = func() any { return new(histBlock) }
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{id: i, queue: make(chan job, cfg.QueueDepth)}
		s.shards[i] = sh
		s.shardWG.Add(1)
		go func() {
			defer s.shardWG.Done()
			sh.run(s)
		}()
	}
	return s, nil
}

// Sessions returns the server's session registry, the live set behind the
// /sessions introspection endpoints (sessiontrack.Mount).
func (s *Server) Sessions() *sessiontrack.Registry { return s.track }

// Addr returns the listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// ListenAndServe binds addr and serves until Shutdown/Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("serve: server closed")

// Serve accepts sessions on ln until the listener is closed by Shutdown or
// Close, then returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || s.stopped() {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
		}()
	}
}

func (s *Server) stopped() bool {
	select {
	case <-s.hardStop:
		return true
	default:
		return false
	}
}

// Shutdown drains the server: the listener stops accepting, every live
// session stops reading, already-received frames are processed and
// acknowledged, and each session gets its final Summary (Drained=true)
// before its connection closes. If ctx expires first the remaining sessions
// are cut hard and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	// BeginDrain atomically stops registration and snapshots the live set:
	// every session either gets a Drain below or was refused registration —
	// the race that used to need the server's own session map is gone.
	live := s.track.BeginDrain()
	for _, sess := range live {
		sess.Drain()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.stopOnce.Do(func() { close(s.hardStop) })
		for _, sess := range live {
			sess.Kill()
		}
		<-done
	}
	s.stopWorkers()
	return err
}

// Close stops the server immediately: live sessions are cut without
// summaries. Prefer Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.hardStop) })
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	for _, sess := range s.track.BeginDrain() {
		sess.Kill()
	}
	s.connWG.Wait()
	s.stopWorkers()
	return nil
}

// stopWorkers closes the shard queues (all producers have exited by now) and
// waits for the workers. Safe to reach from both Shutdown and Close.
func (s *Server) stopWorkers() {
	s.workersOnce.Do(func() {
		for _, sh := range s.shards {
			close(sh.queue)
		}
	})
	s.shardWG.Wait()
}

// run is a shard worker: it owns the predictor state of every session pinned
// to this shard and processes their frames in arrival order. A predictor
// panic kills the offending session only — the recover sits inside
// session.processFrame, mirroring the sim engine's lane isolation.
func (sh *shard) run(s *Server) {
	for j := range sh.queue {
		s.m.queueDepth.Add(-1)
		sess := j.sess
		switch {
		case sess.dead.Load():
			// Session already failed; its queued work is void.
			j.buf.Release()
		case j.done:
			sess.emitSummary(false)
		case j.drain:
			sess.emitSummary(true)
		default:
			sess.processFrame(j)
		}
	}
}

// enqueue places a job on the shard's bounded queue, blocking (and thereby
// backpressuring the session's TCP reader) while the queue is full. It
// aborts only on a hard server stop, releasing the job's buffer — once
// enqueued, ownership is the worker's.
func (s *Server) enqueue(sh *shard, j job) bool {
	select {
	case sh.queue <- j:
		s.m.queueDepth.Add(1)
		return true
	case <-s.hardStop:
		j.buf.Release()
		return false
	}
}

// shardFor pins a new session to a shard by FNV-1a hash of its first
// record's PC. Pinning is per-session — records of one session must hit one
// predictor in order, or global-history state (and the bit-identical
// equivalence with sim.Run) would be destroyed.
func (s *Server) shardFor(pc uint32) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < 4; i++ {
		h ^= pc >> (8 * i) & 0xff
		h *= prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// handleConn is a session's reader goroutine: handshake, then the frame
// read loop feeding the session's shard.
func (s *Server) handleConn(conn net.Conn) {
	log := s.cfg.Log
	conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	var pre [len(Preamble) + 1]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		log.Debug("preamble read failed", "err", err)
		conn.Close()
		return
	}
	if string(pre[:len(Preamble)]) != Preamble || pre[len(Preamble)] != ProtocolVersion {
		log.Debug("bad preamble", "bytes", fmt.Sprintf("%x", pre))
		conn.Close()
		return
	}
	fr := trace.NewPooledFrameReader(conn, s.cfg.MaxFramePayload, s.pool)
	sess, err := s.openSession(conn, fr)
	if err != nil {
		// openSession already wrote the error frame where possible.
		log.Debug("session open failed", "err", err)
		conn.Close()
		return
	}
	log.Info("session open", "session", sess.id, "benchmark", sess.hello.Benchmark,
		"predictor", sess.predName, "events", sess.events, "window", sess.window)
	sess.readLoop(fr)
}

// writeDirect writes one frame straight to the connection (used before the
// session writer exists).
func (s *Server) writeDirect(conn net.Conn, typ uint64, payload []byte) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	fw := trace.NewFrameWriter(conn)
	fw.WriteFrame(typ, payload)
	fw.Flush()
}

// openSession performs the Hello/HelloAck handshake and registers the
// session (starting its writer goroutine).
func (s *Server) openSession(conn net.Conn, fr *trace.FrameReader) (*session, error) {
	f, err := fr.Next()
	if err != nil {
		return nil, fmt.Errorf("hello frame: %w", err)
	}
	defer f.Release() // borrowed payload; the decoded Hello below outlives it
	if f.Type != FrameHello {
		s.writeDirect(conn, FrameError, marshalJSON(&WireError{Code: CodeBadHello, Msg: "first frame must be Hello"}))
		return nil, fmt.Errorf("first frame type %#x", f.Type)
	}
	var hello Hello
	if err := unmarshalPayload(f.Payload, &hello); err != nil {
		s.writeDirect(conn, FrameError, marshalJSON(&WireError{Code: CodeBadHello, Msg: err.Error()}))
		return nil, err
	}
	// A malformed per-session tuner policy is a handshake error, like a bad
	// predictor spec; validated even when tuning is off so the spec's
	// meaning never depends on server flags.
	policy := s.cfg.Tuner.DefaultPolicy()
	if hello.TunerPolicy != "" {
		var err error
		if policy, err = tuner.ParsePolicy(hello.TunerPolicy); err != nil {
			s.writeDirect(conn, FrameError, marshalJSON(&WireError{Code: CodeBadHello, Msg: err.Error()}))
			return nil, err
		}
	}
	pf := s.cfg.Predictor
	if hello.Predictor != nil {
		pf = *hello.Predictor
	}
	if err := pf.Validate(); err != nil {
		s.writeDirect(conn, FrameError, marshalJSON(&WireError{Code: CodeBadHello, Msg: err.Error()}))
		return nil, err
	}
	pred, err := pf.Build()
	if err != nil {
		s.writeDirect(conn, FrameError, marshalJSON(&WireError{Code: CodeBadHello, Msg: err.Error()}))
		return nil, err
	}
	if hello.Warmup < 0 {
		s.writeDirect(conn, FrameError, marshalJSON(&WireError{Code: CodeBadHello, Msg: "negative warmup"}))
		return nil, fmt.Errorf("negative warmup %d", hello.Warmup)
	}
	window := hello.Window
	if window <= 0 || window > s.cfg.Window {
		window = s.cfg.Window
	}
	sess := newSession(s, conn, pred, hello, window)
	traceID := hello.TraceID
	if traceID == "" && s.cfg.Flight.Enabled() {
		traceID = s.cfg.Flight.NextTraceID()
	}
	meta := sessiontrack.Meta{
		Kind:      sessiontrack.KindServe,
		Benchmark: hello.Benchmark,
		Tenant:    hello.Tenant,
		Predictor: sess.predName,
		TraceID:   traceID,
		Window:    window,
		Upstream:  hello.RouterSession,
	}
	if ts, ok := pred.(core.TableStatser); ok {
		meta.Tables = ts.TableStats() // baseline for /sessions/{id} deltas
	}
	entry, err := s.track.Register(sess, meta)
	if err != nil {
		return nil, err // draining: no new sessions
	}
	sess.id = entry.ID()
	sess.track = entry
	sess.tracer = s.cfg.Flight.Tracer(traceID, sess.id)
	// Events sessions are not tuned: event frames already shipped under the
	// old predictor could not be reconciled with a swap's replayed
	// accounting, so the deterministic choice is to skip them.
	if s.cfg.Tuner != nil && !hello.Events {
		sess.tun = s.cfg.Tuner.Session(policy, pf, entry)
		if sess.tun != nil {
			sess.kern.SetMissObserver(sess.tun)
		}
	}
	s.m.sessionsTotal.Inc()
	s.m.sessionsActive.Add(1)

	s.connWG.Add(1)
	go func() {
		defer s.connWG.Done()
		sess.writeLoop()
	}()
	sess.send(outMsg{typ: FrameHelloAck, payload: marshalJSON(HelloAck{
		Session:         sess.id,
		Predictor:       sess.predName,
		Window:          window,
		MaxFramePayload: s.cfg.MaxFramePayload,
		MaxFrameRecords: s.cfg.MaxFrameRecords,
		Events:          hello.Events,
		TraceID:         sess.tracer.TraceID(),
	})})
	return sess, nil
}

// unregister removes the session from the live set. The registry's
// exactly-once Unregister keys the gauge decrement, so no combination of
// exit paths (summary, fail, shed, hard close, drain race) can decrement
// twice or leave serve_sessions_active elevated.
func (s *Server) unregister(sess *session) {
	if s.track.Unregister(sess.track) {
		s.m.sessionsActive.Add(-1)
		sess.tun.Close()
	}
}
