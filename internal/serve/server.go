package serve

import (
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"

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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	c.Limits, c.Log = ClientDefaults(c.Limits, c.Log)
	return c
}

// Server is a sharded streaming prediction service. Create with New, run
// with Serve/ListenAndServe, stop with Shutdown (graceful drain) or Close;
// all of those come with the embedded FrontEnd, which Server shares with
// the cluster router.
type Server struct {
	*FrontEnd

	cfg  Config
	m    *metrics
	pool *trace.BufferPool // frame payload buffers, shared by all readers

	shards  []*shard
	shardWG sync.WaitGroup

	// track is the session-lifecycle core: it owns session id allocation,
	// the live set, the drain handshake, and every per-session stat the
	// introspection plane serves. The router's proxy sessions use the same
	// registry type — one session-management core.
	track *sessiontrack.Registry

	hardStop    chan struct{} // closed when a stop cuts the sessions
	stopOnce    sync.Once
	workersOnce sync.Once
}

// job is one unit of shard work: a records frame to simulate, or a
// done/drain sentinel asking for the session's final summary. The chunk is
// the borrowed frame payload (backed by buf when pooled); whoever consumes
// the job — the worker, or the drain paths around it — releases buf.
type job struct {
	sess  *session
	seq   uint64
	chunk []byte           // record chunk, seq already peeled off
	buf   *trace.PooledBuf // backing pooled buffer; nil for sentinels
	span  flight.Span      // the frame's stamps, receive on
	done  bool             // client sent Done
	drain bool             // server drain ended the stream
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
	s := &Server{
		cfg:      cfg,
		m:        newMetrics(telemetry.Default()),
		pool:     trace.NewBufferPool(),
		track:    sessiontrack.NewRegistry(sessiontrack.Options{Service: "ibpserved", Tag: cfg.Tag}),
		hardStop: make(chan struct{}),
	}
	fe, err := NewFrontEnd(FrontEndConfig{
		Predictor: cfg.Predictor,
		Policy:    cfg.Tuner.DefaultPolicy(),
		Limits:    cfg.Limits,
		Pool:      s.pool,
		Flight:    cfg.Flight,
		Log:       cfg.Log,
		Sessions:  s.track,
		Open:      s.open,
		// A cut unblocks readers waiting on a full shard queue.
		OnCut:  func() { s.stopOnce.Do(func() { close(s.hardStop) }) },
		OnStop: s.stopWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.FrontEnd = fe
	s.pool.OnStats(func() { s.m.poolHits.Inc() }, func() { s.m.poolMisses.Inc() })
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

// open registers an accepted session, starts its writer, queues the
// HelloAck, and runs the session's frame reader on the connection's
// goroutine.
func (s *Server) open(conn net.Conn, fr *trace.FrameReader, h Handshake) {
	sess := newSession(s, conn, h.Pred, h.Hello, h.Window)
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
	entry, err := s.track.Register(sess, meta)
	if err != nil {
		s.cfg.Log.Debug("session open failed", "err", err) // draining
		conn.Close()
		return
	}
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
	s.m.sessionsTotal.Inc()
	s.m.sessionsActive.Add(1)

	w := &Writer{
		Conn:      conn,
		Out:       sess.out,
		Stop:      sess.stop,
		Timeout:   s.cfg.WriteTimeout,
		Publish:   sess.publish,
		Exit:      sess.writerExit,
		BatchSize: s.m.ackBatchSize,
		FlushTime: s.m.ackFlush,
	}
	s.Go(w.Run)
	sess.send(OutFrame{Type: FrameHelloAck, Payload: s.AckHello(h, sess.id, sess.tracer.TraceID())})
	s.cfg.Log.Info("session open", "session", sess.id, "benchmark", h.Hello.Benchmark,
		"predictor", sess.predName, "events", sess.events, "window", h.Window)
	sess.readLoop(fr)
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
