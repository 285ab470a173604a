package sessiontrack

import (
	"context"
	"sort"
	"time"

	"github.com/oocsb/ibp/internal/table"
)

// WindowStats is the sliding-window slice of a session's counters: rates
// over the last ~8 seconds rather than since connect.
type WindowStats struct {
	// Seconds is the span the window actually covers (shorter right after
	// connect).
	Seconds       float64 `json:"seconds"`
	Records       int64   `json:"records"`
	Executed      int64   `json:"executed"`
	Misses        int64   `json:"misses"`
	MissRate      float64 `json:"missRate"`
	RecordsPerSec float64 `json:"recordsPerSec"`
	// QueueWaitAvgUS is the mean wait per frame in the window, microseconds:
	// the wait for a predictor slot on a serve session, receive to first
	// relay on a proxy session.
	QueueWaitAvgUS float64 `json:"queueWaitAvgUs"`
}

// SessionSnapshot is one session's externally visible state: identity,
// lifecycle, cumulative counters, and the sliding window.
type SessionSnapshot struct {
	ID   uint64 `json:"id"`
	Kind string `json:"kind"`
	// Backend is the wire address serving this session: the proxy's current
	// placement on the router side, or (filled by fan-in) the backend a
	// merged serve session lives on.
	Backend   string `json:"backend,omitempty"`
	Upstream  uint64 `json:"upstream,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Predictor string `json:"predictor,omitempty"`
	TraceID   string `json:"traceId,omitempty"`
	State     string `json:"state"`
	Window    int    `json:"window,omitempty"`

	ConnectedUnixNS int64   `json:"connectedUnixNs"`
	AgeSec          float64 `json:"ageSec"`
	IdleMS          float64 `json:"idleMs"`

	Inflight       int32   `json:"inflight"`
	Frames         uint64  `json:"frames"`
	Records        uint64  `json:"records"`
	Executed       uint64  `json:"executed"`
	Misses         uint64  `json:"misses"`
	MissRate       float64 `json:"missRate"`
	QueueWaitAvgUS float64 `json:"queueWaitAvgUs,omitempty"`

	// Swaps counts tuner predictor hot-swaps; Predictor above reflects the
	// live (post-swap) predictor, not the one the session opened with.
	Swaps uint64 `json:"swaps,omitempty"`
	// MissClasses breaks the session's post-warmup misses down by the
	// tuner's sketch; nil unless a tuner observed the session.
	MissClasses *MissClassCounts `json:"missClasses,omitempty"`

	JournalBytes   int64  `json:"journalBytes,omitempty"`
	Failovers      uint64 `json:"failovers,omitempty"`
	ReplayedFrames uint64 `json:"replayedFrames,omitempty"`
	// Replayable is false once journal eviction forfeited lossless failover
	// (proxy sessions; serve sessions report true vacuously).
	Replayable bool `json:"replayable"`

	Win WindowStats `json:"win"`
}

// MissClassCounts is the tuner's per-session miss-class sketch, using the
// internal/analysis classifier taxonomy.
type MissClassCounts struct {
	Cold     uint64 `json:"cold"`
	Conflict uint64 `json:"conflict"`
	Alias    uint64 `json:"alias"`
	Meta     uint64 `json:"meta"`
}

// TableDelta pairs a predictor table's live stats with the change since the
// session opened, so /sessions/{id} shows what this session did to the
// tables rather than process lifetime totals.
type TableDelta struct {
	table.Stats
	DeltaInserts   uint64 `json:"deltaInserts"`
	DeltaEvictions uint64 `json:"deltaEvictions"`
	DeltaResets    uint64 `json:"deltaResets"`
}

// BackendInfo is one backend's health line in a cluster view.
type BackendInfo struct {
	Addr     string `json:"addr"`
	State    string `json:"state"`
	Sessions int    `json:"sessions"`
	// MetricsAddr is the backend's metrics listener the fan-in polls.
	MetricsAddr string `json:"metricsAddr,omitempty"`
	// Err is the last fan-in poll failure, empty when the poll succeeded.
	Err string `json:"err,omitempty"`
}

// View is a whole-process (or, via fan-in, whole-cluster) session listing.
type View struct {
	Service     string            `json:"service"`
	Tag         string            `json:"tag,omitempty"`
	TakenUnixNS int64             `json:"takenUnixNs"`
	Backends    []BackendInfo     `json:"backends,omitempty"`
	Sessions    []SessionSnapshot `json:"sessions"`
}

// Source is anything that can produce a View: a local Registry, or the
// cluster fan-in that merges backend views. The HTTP layer serves either.
type Source interface {
	View(ctx context.Context) (View, error)
}

func (s *Session) snapshotAt(nowNS int64) SessionSnapshot {
	snap := SessionSnapshot{
		ID:              s.id,
		Kind:            s.meta.Kind.String(),
		Upstream:        s.meta.Upstream,
		Benchmark:       s.meta.Benchmark,
		Tenant:          s.meta.Tenant,
		Predictor:       s.meta.Predictor,
		TraceID:         s.meta.TraceID,
		State:           State(s.state.Load()).String(),
		Window:          s.meta.Window,
		ConnectedUnixNS: s.connectedNS,
		AgeSec:          float64(nowNS-s.connectedNS) / 1e9,
		IdleMS:          float64(nowNS-s.lastNS.Load()) / 1e6,
		Inflight:        s.inflight.Load(),
		Frames:          s.frames.Load(),
		Records:         s.records.Load(),
		Executed:        s.executed.Load(),
		Misses:          s.misses.Load(),
		JournalBytes:    s.journalBytes.Load(),
		Failovers:       s.failovers.Load(),
		ReplayedFrames:  s.replayed.Load(),
		Replayable:      !s.replayLost.Load(),
	}
	if b := s.backend.Load(); b != nil {
		snap.Backend = *b
	}
	if p := s.predictor.Load(); p != nil {
		snap.Predictor = *p
	}
	snap.Swaps = s.swaps.Load()
	c0, c1 := s.missClass[0].Load(), s.missClass[1].Load()
	c2, c3 := s.missClass[2].Load(), s.missClass[3].Load()
	if c0|c1|c2|c3 != 0 {
		snap.MissClasses = &MissClassCounts{Cold: c0, Conflict: c1, Alias: c2, Meta: c3}
	}
	if snap.Executed > 0 {
		snap.MissRate = float64(snap.Misses) / float64(snap.Executed)
	}
	if n := s.waitN.Load(); n > 0 {
		snap.QueueWaitAvgUS = float64(s.waitNS.Load()) / float64(n) / 1e3
	}
	snap.Win = s.windowAt(nowNS)
	return snap
}

// Snapshot returns the session's state as of now. Nil-safe (zero snapshot).
func (s *Session) Snapshot() SessionSnapshot {
	if s == nil {
		return SessionSnapshot{}
	}
	return s.snapshotAt(time.Now().UnixNano())
}

func (s *Session) windowAt(nowNS int64) WindowStats {
	var w WindowStats
	bucketNS := s.reg.bucketNS
	cur := nowNS / bucketNS
	oldest := cur
	var waitNS, waitN int64
	for i := range s.buckets {
		b := &s.buckets[i]
		e := b.epoch.Load()
		if e > cur-winBuckets && e <= cur {
			w.Records += b.records.Load()
			w.Executed += b.executed.Load()
			w.Misses += b.misses.Load()
			waitNS += b.waitNS.Load()
			waitN += b.waitN.Load()
			if e < oldest {
				oldest = e
			}
		}
	}
	// Span from the start of the oldest live bucket to now; floor it so a
	// brand-new session doesn't divide by ~zero.
	w.Seconds = float64(nowNS-oldest*bucketNS) / 1e9
	if w.Seconds < 0.1 {
		w.Seconds = 0.1
	}
	if w.Executed > 0 {
		w.MissRate = float64(w.Misses) / float64(w.Executed)
	}
	w.RecordsPerSec = float64(w.Records) / w.Seconds
	if waitN > 0 {
		w.QueueWaitAvgUS = float64(waitNS) / float64(waitN) / 1e3
	}
	return w
}

// Tables returns the live table stats diffed against the registration
// baseline. Nil for proxy sessions and predictors without table stats.
func (s *Session) Tables() []TableDelta {
	if s == nil {
		return nil
	}
	s.tmu.Lock()
	cur := append([]table.Stats(nil), s.tables...)
	s.tmu.Unlock()
	if len(cur) == 0 {
		return nil
	}
	out := make([]TableDelta, len(cur))
	for i, ts := range cur {
		d := TableDelta{Stats: ts}
		if i < len(s.meta.Tables) {
			base := s.meta.Tables[i]
			d.DeltaInserts = ts.Inserts - base.Inserts
			d.DeltaEvictions = ts.Evictions - base.Evictions
			d.DeltaResets = ts.Resets - base.Resets
		} else {
			d.DeltaInserts = ts.Inserts
			d.DeltaEvictions = ts.Evictions
			d.DeltaResets = ts.Resets
		}
		out[i] = d
	}
	return out
}

func (r *Registry) viewAt(nowNS int64) View {
	v := View{TakenUnixNS: nowNS, Sessions: []SessionSnapshot{}}
	if r == nil {
		return v
	}
	v.Service = r.service
	v.Tag = r.tag
	for _, s := range r.Live() {
		v.Sessions = append(v.Sessions, s.snapshotAt(nowNS))
	}
	SortSessions(v.Sessions, "id")
	return v
}

// View implements Source over the local registry. Never errors.
func (r *Registry) View(context.Context) (View, error) {
	return r.viewAt(time.Now().UnixNano()), nil
}

// Sort keys accepted by SortSessions, /sessions?sort= and ibptop -sort.
const (
	SortID       = "id"       // ascending session id (stable listing)
	SortMissRate = "missrate" // descending windowed miss rate
	SortRPS      = "rps"      // descending windowed records/s
	SortWait     = "wait"     // descending windowed queue wait
	SortRecords  = "records"  // descending cumulative records
)

// SortSessions orders a snapshot slice by the given key (unknown keys fall
// back to id order). All orders tie-break on (backend, id) so output is
// deterministic for tests and scripting.
func SortSessions(ss []SessionSnapshot, key string) {
	less := func(a, b *SessionSnapshot) bool { return false }
	switch key {
	case SortMissRate:
		less = func(a, b *SessionSnapshot) bool { return a.Win.MissRate > b.Win.MissRate }
	case SortRPS:
		less = func(a, b *SessionSnapshot) bool { return a.Win.RecordsPerSec > b.Win.RecordsPerSec }
	case SortWait:
		less = func(a, b *SessionSnapshot) bool { return a.Win.QueueWaitAvgUS > b.Win.QueueWaitAvgUS }
	case SortRecords:
		less = func(a, b *SessionSnapshot) bool { return a.Records > b.Records }
	}
	sort.SliceStable(ss, func(i, j int) bool {
		a, b := &ss[i], &ss[j]
		if less(a, b) {
			return true
		}
		if less(b, a) {
			return false
		}
		if a.Backend != b.Backend {
			return a.Backend < b.Backend
		}
		return a.ID < b.ID
	})
}
