// Package sessiontrack is the live session introspection plane: a
// lock-light registry that every serve session and every router proxy
// session registers into, tracking identity (session id, tenant, benchmark,
// predictor config), lifecycle state, and per-window sliding stats
// (records/s, miss rate, queue wait, window occupancy, journal bytes,
// replay/failover state) updated from the serving hot paths.
//
// The package doubles as the session-management core the serve and cluster
// layers share (ROADMAP item 5): the registry owns session id allocation,
// the live set, and the drain handshake — BeginDrain atomically stops new
// registrations and snapshots the sessions to wind down, closing the
// register-vs-drain race both layers used to handle with their own maps.
//
// Design rules, inherited from the telemetry layer:
//
//   - Nil is disabled. A nil *Registry and a nil *Session are valid no-op
//     values; every method is nil-safe and the disabled update path costs a
//     nil check and nothing else (asserted by TestNilSessionTrackZeroAllocs).
//   - No allocations on the update path, enabled or not. Per-session stats
//     are atomics and a fixed ring of sliding-window buckets; hot paths pass
//     the clock reading they already took, so tracking adds no time.Now
//     calls to the frame path (asserted by TestSessionUpdateZeroAllocs).
//   - Readers never block writers. Snapshots read atomics one by one — a
//     snapshot is not a global cut, but every value is one the session
//     actually held.
package sessiontrack

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oocsb/ibp/internal/table"
)

// Kind distinguishes the two session shapes in a cluster.
type Kind uint8

const (
	// KindServe is a backend (ibpserved) session that owns a predictor.
	KindServe Kind = iota
	// KindProxy is a router (ibprouter) session: journal + relay, no
	// predictor of its own.
	KindProxy
)

func (k Kind) String() string {
	if k == KindProxy {
		return "proxy"
	}
	return "serve"
}

// State is a session's lifecycle position, shown in /sessions and ibptop.
type State uint32

const (
	// StatePlacing — a proxy session dialing its first backend.
	StatePlacing State = iota
	// StateActive — streaming frames normally.
	StateActive
	// StateDraining — a server drain ended the stream; queued frames are
	// being flushed into the final summary.
	StateDraining
	// StateFailover — the session's backend died; the router is looking for
	// a survivor.
	StateFailover
	// StateReplaying — the journal prefix is being replayed onto a
	// replacement backend.
	StateReplaying
)

var stateNames = [...]string{"placing", "active", "draining", "failover", "replaying"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "invalid"
}

// Conn is the lifecycle control surface a session owner registers with its
// stats: how to wind the session down. Serve sessions map Drain to their
// graceful drain (process what's queued, summarize) and Kill to a hard
// close; proxy sessions run to completion on drain (Drain is a no-op there)
// and map Kill to connection teardown.
type Conn interface {
	Drain()
	Kill()
}

// Meta is a session's immutable identity, captured at registration.
type Meta struct {
	Kind      Kind
	Benchmark string
	// Tenant is the client-declared tenant tag (Hello.Tenant), the grouping
	// key for per-tenant views and future quota enforcement.
	Tenant    string
	Predictor string
	TraceID   string
	// Window is the granted frame window (occupancy is tracked live).
	Window int
	// Upstream is the router-side session id pinned into the forwarded
	// Hello when the session arrived through ibprouter; it is the fan-in
	// correlation key between a backend session and its proxy session.
	Upstream uint64
	// Tables is the predictor's table stats at session open — the baseline
	// /sessions/{id} diffs live stats against.
	Tables []table.Stats
}

// winBuckets is the sliding window's ring size; with the default 1s bucket
// the window covers the last ~8 seconds.
const winBuckets = 8

// winBucket is one time slice of the sliding window. The epoch tags which
// absolute bucket interval the counters belong to; a writer that finds a
// stale epoch CASes it forward and zeroes the counters. Updates racing a
// reset can lose a sample — acceptable for monitoring, and every access is
// atomic so there is no data race.
type winBucket struct {
	epoch    atomic.Int64
	records  atomic.Int64
	executed atomic.Int64
	misses   atomic.Int64
	waitNS   atomic.Int64
	waitN    atomic.Int64
}

func (b *winBucket) roll(e int64) {
	old := b.epoch.Load()
	if old != e && b.epoch.CompareAndSwap(old, e) {
		b.records.Store(0)
		b.executed.Store(0)
		b.misses.Store(0)
		b.waitNS.Store(0)
		b.waitN.Store(0)
	}
}

// Session is one tracked session's stats block. All update methods are
// nil-safe no-ops and never allocate; they are called from the serving hot
// paths (once per acknowledged frame, not per record).
type Session struct {
	id   uint64
	reg  *Registry
	conn Conn
	meta Meta

	connectedNS int64
	state       atomic.Uint32
	backend     atomic.Pointer[string]
	lastNS      atomic.Int64

	frames   atomic.Uint64
	records  atomic.Uint64
	executed atomic.Uint64
	misses   atomic.Uint64
	waitNS   atomic.Int64
	waitN    atomic.Int64
	inflight atomic.Int32

	// Tuner-facing state: the live predictor name (meta.Predictor is the
	// config at open; this tracks hot swaps), the swap count, and the
	// per-class miss sketch counters (cold, conflict, alias, meta), flushed
	// once per frame by the tuner.
	predictor atomic.Pointer[string]
	swaps     atomic.Uint64
	missClass [4]atomic.Uint64

	journalBytes atomic.Int64
	failovers    atomic.Uint64
	replayed     atomic.Uint64
	// replayLost flips when journal eviction forfeited the session's
	// lossless-failover guarantee.
	replayLost atomic.Bool

	buckets [winBuckets]winBucket

	// tmu guards the periodically refreshed live table stats (serve
	// sessions only; refreshed by the session's reader, which owns the
	// predictor, and read by /sessions/{id}).
	tmu    sync.Mutex
	tables []table.Stats

	unreg atomic.Bool
}

// ID returns the registry-assigned session id (0 on nil).
func (s *Session) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Conn returns the owner the session registered with (nil on nil) — the way
// back from a registry entry to the owning serve/proxy session.
func (s *Session) Conn() Conn {
	if s == nil {
		return nil
	}
	return s.conn
}

// Drain forwards to the owner's graceful drain. Nil-safe.
func (s *Session) Drain() {
	if s != nil && s.conn != nil {
		s.SetState(StateDraining)
		s.conn.Drain()
	}
}

// Kill forwards to the owner's hard close. Nil-safe.
func (s *Session) Kill() {
	if s != nil && s.conn != nil {
		s.conn.Kill()
	}
}

// Retuner is the optional Conn extension a tuned serve session implements:
// Retune forces a tuner policy evaluation at the next frame boundary.
type Retuner interface {
	Retune() bool
}

// Retune forwards to the owner when it supports forced retuning (the
// /sessions/{id}/retune admin verb). Nil-safe; false when the session's
// owner has no tuner attached.
func (s *Session) Retune() bool {
	if s == nil || s.conn == nil {
		return false
	}
	rt, ok := s.conn.(Retuner)
	return ok && rt.Retune()
}

// PredictorSwapped records a tuner predictor hot-swap: the session now runs
// name. Called at most once per swap, so the boxed string is off the frame
// path.
func (s *Session) PredictorSwapped(name string) {
	if s == nil {
		return
	}
	p := new(string)
	*p = name
	s.predictor.Store(p)
	s.swaps.Add(1)
}

// Swaps returns the tuner hot-swap count. Nil-safe.
func (s *Session) Swaps() uint64 {
	if s == nil {
		return 0
	}
	return s.swaps.Load()
}

// AddMissClasses flushes one frame's miss-class sketch deltas
// (cold/conflict/alias/meta) from the tuner. Zero deltas cost nothing.
func (s *Session) AddMissClasses(cold, conflict, alias, meta uint64) {
	if s == nil {
		return
	}
	if cold != 0 {
		s.missClass[0].Add(cold)
	}
	if conflict != 0 {
		s.missClass[1].Add(conflict)
	}
	if alias != 0 {
		s.missClass[2].Add(alias)
	}
	if meta != 0 {
		s.missClass[3].Add(meta)
	}
}

// SetState moves the session's lifecycle state.
func (s *Session) SetState(st State) {
	if s != nil {
		s.state.Store(uint32(st))
	}
}

// SetBackend records the session's current backend placement (proxy
// sessions; called once per placement, so the boxed string is off the frame
// path).
func (s *Session) SetBackend(addr string) {
	if s == nil {
		return
	}
	// Box after the nil check: taking &addr directly would move the parameter
	// to the heap at function entry and make even the disabled path allocate.
	p := new(string)
	*p = addr
	s.backend.Store(p)
}

// SetInflight sets the frame window occupancy (the router derives it from
// the seq/ack watermark distance; a serve session leaves it at 0).
func (s *Session) SetInflight(n int32) {
	if s != nil {
		s.inflight.Store(n)
	}
}

// JournalDelta moves the session's journal byte accounting (append
// positive, eviction/release negative).
func (s *Session) JournalDelta(bytes int64) {
	if s != nil {
		s.journalBytes.Add(bytes)
	}
}

// Failover counts one backend replacement.
func (s *Session) Failover() {
	if s != nil {
		s.failovers.Add(1)
		s.SetState(StateFailover)
	}
}

// ReplayedFrames counts frames re-sent while replaying the journal.
func (s *Session) ReplayedFrames(n int) {
	if s != nil {
		s.replayed.Add(uint64(n))
	}
}

// SetReplayable(false) records that journal eviction forfeited lossless
// failover for this session.
func (s *Session) SetReplayable(ok bool) {
	if s != nil {
		s.replayLost.Store(!ok)
	}
}

// FrameAcked records one records frame whose ack reached the client: its
// record/executed/miss counts and its wait, which on a serve session is the
// wait for a predictor slot (receive to slot) and on a proxy session the
// time from receive to first relay. nowNS is the clock reading the caller
// took for the ack's flush — tracking adds no clock read of its own.
func (s *Session) FrameAcked(nowNS int64, records, executed, misses int, wait time.Duration) {
	if s == nil {
		return
	}
	s.frames.Add(1)
	s.records.Add(uint64(records))
	s.executed.Add(uint64(executed))
	s.misses.Add(uint64(misses))
	s.waitNS.Add(int64(wait))
	s.waitN.Add(1)
	s.lastNS.Store(nowNS)
	e := nowNS / s.reg.bucketNS
	b := &s.buckets[e%winBuckets]
	b.roll(e)
	b.records.Add(int64(records))
	b.executed.Add(int64(executed))
	b.misses.Add(int64(misses))
	b.waitNS.Add(int64(wait))
	b.waitN.Add(1)
}

// UpdateTables refreshes the live predictor table stats (serve sessions;
// called by the session's reader, which owns the predictor, amortized to
// every few frames so the frame path stays allocation-free in steady state).
func (s *Session) UpdateTables(ts []table.Stats) {
	if s == nil {
		return
	}
	s.tmu.Lock()
	s.tables = append(s.tables[:0], ts...)
	s.tmu.Unlock()
}

// ErrDraining is returned by Register once BeginDrain has run.
var ErrDraining = errors.New("sessiontrack: registry draining")

// Options configures a Registry.
type Options struct {
	// Service names the process in views ("ibpserved", "ibprouter").
	Service string
	// Tag is the instance label (ibpserved -tag) shown next to the service.
	Tag string
	// Bucket is the sliding window bucket width; the window spans 8 buckets.
	// <= 0 means 1s (an ~8s window).
	Bucket time.Duration
}

// Registry is the live session set of one process. The nil *Registry is the
// disabled registry: NewSession returns a nil session (whose methods are all
// no-ops) and every query returns zero values.
type Registry struct {
	service  string
	tag      string
	bucketNS int64

	nextID atomic.Uint64

	mu       sync.Mutex
	sessions map[uint64]*Session
	draining bool
}

// NewRegistry builds an enabled registry.
func NewRegistry(o Options) *Registry {
	if o.Bucket <= 0 {
		o.Bucket = time.Second
	}
	return &Registry{
		service:  o.Service,
		tag:      o.Tag,
		bucketNS: o.Bucket.Nanoseconds(),
		sessions: make(map[uint64]*Session),
	}
}

// NewSession builds the entry for a session of c and allocates its id, but
// does not publish it: Live, Get and BeginDrain cannot return it until
// Register. The owner binds the entry, and everything its Drain and Kill
// read, in between, so whoever finds a session in the registry finds an
// owner that holds its entry. On the nil registry it returns nil, the
// zero-cost disabled stats handle.
func (r *Registry) NewSession(c Conn, m Meta) *Session {
	if r == nil {
		return nil
	}
	s := &Session{
		reg:         r,
		conn:        c,
		meta:        m,
		connectedNS: time.Now().UnixNano(),
	}
	s.lastNS.Store(s.connectedNS)
	if m.Kind == KindProxy {
		s.state.Store(uint32(StatePlacing))
	} else {
		s.state.Store(uint32(StateActive))
	}
	if len(m.Tables) > 0 {
		s.tables = append([]table.Stats(nil), m.Tables...)
	}
	s.meta.Tables = append([]table.Stats(nil), m.Tables...) // private baseline copy
	s.id = r.nextID.Add(1)
	return s
}

// Register publishes a session built by NewSession into the live set. It
// returns ErrDraining after BeginDrain (no new sessions during wind-down);
// the refused session stays unpublished, and Unregister still settles it
// once. Registering the nil session is a no-op.
func (r *Registry) Register(s *Session) error {
	if r == nil || s == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return ErrDraining
	}
	r.sessions[s.id] = s
	return nil
}

// Unregister removes the session from the live set. Exactly-once: the first
// call returns true, every later one (and any call with a nil session or
// registry) returns false — callers key their sessions-active gauge
// decrement on that, so no exit-path race can leave the gauge elevated.
func (r *Registry) Unregister(s *Session) bool {
	if r == nil || s == nil {
		return false
	}
	if !s.unreg.CompareAndSwap(false, true) {
		return false
	}
	r.mu.Lock()
	delete(r.sessions, s.id)
	r.mu.Unlock()
	return true
}

// BeginDrain marks the registry draining — subsequent Registers fail with
// ErrDraining — and returns the live sessions at that instant. The mark and
// the snapshot are atomic, so every session is either in the returned slice
// or was refused registration; none can slip between drain and snapshot.
func (r *Registry) BeginDrain() []*Session {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.draining = true
	live := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		live = append(live, s)
	}
	r.mu.Unlock()
	return live
}

// Live returns the current live sessions.
func (r *Registry) Live() []*Session {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	live := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		live = append(live, s)
	}
	r.mu.Unlock()
	return live
}

// Len returns the live session count.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Get returns the live session with the given id.
func (r *Registry) Get(id uint64) (*Session, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	s, ok := r.sessions[id]
	r.mu.Unlock()
	return s, ok
}
