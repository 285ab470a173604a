package tuner

import (
	"sync/atomic"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
)

// Miss classes in the internal/analysis taxonomy, as sketch indices.
const (
	ClassCold = iota
	ClassConflict
	ClassAlias
	ClassMeta
	numClasses
)

// Decision is one act the policy state machine emitted at a frame boundary.
// The serve layer applies it: build Target, replay the session's history,
// swap at the boundary.
type Decision struct {
	// Target is the predictor to swap to.
	Target cli.PredictorFlags
	// Escalate is true for an escalation, false for a fall-back to the
	// session's original predictor.
	Escalate bool
	// Reason is a short operator-facing label ("miss-rate", "forced").
	Reason string
}

// Tuner is the process-level adaptation plane: the default policy and the
// tuner_* telemetry. nil is disabled: Session returns nil and every method
// no-ops.
type Tuner struct {
	def Policy
	m   metrics
}

// Options configures a Tuner.
type Options struct {
	// Policy is the process default, overridable per session via
	// Hello.TunerPolicy.
	Policy Policy
	// Telemetry resolves the tuner_* handles; nil disables them.
	Telemetry *telemetry.Registry
}

// metrics is the tuner_* telemetry surface; handles are nil-safe no-ops
// when telemetry is off.
type metrics struct {
	sessions      *telemetry.Counter // tuner_sessions_total
	swaps         *telemetry.Counter // tuner_swaps_total
	escalations   *telemetry.Counter // tuner_escalations_total
	deescalations *telemetry.Counter // tuner_deescalations_total
	swapFailed    *telemetry.Counter // tuner_swap_failed_total
	replayed      *telemetry.Counter // tuner_replayed_records_total
	overflow      *telemetry.Counter // tuner_history_overflow_total
	active        *telemetry.Gauge   // tuner_sessions_active
}

// New builds an enabled tuner.
func New(o Options) *Tuner {
	if o.Policy.Interval == 0 {
		o.Policy = DefaultPolicy()
	}
	r := o.Telemetry
	return &Tuner{
		def: o.Policy,
		m: metrics{
			sessions:      r.Counter("tuner_sessions_total"),
			swaps:         r.Counter("tuner_swaps_total"),
			escalations:   r.Counter("tuner_escalations_total"),
			deescalations: r.Counter("tuner_deescalations_total"),
			swapFailed:    r.Counter("tuner_swap_failed_total"),
			replayed:      r.Counter("tuner_replayed_records_total"),
			overflow:      r.Counter("tuner_history_overflow_total"),
			active:        r.Gauge("tuner_sessions_active"),
		},
	}
}

// DefaultPolicy returns the process default policy (zero Policy on nil).
func (t *Tuner) DefaultPolicy() Policy {
	if t == nil {
		return Policy{}
	}
	return t.def
}

// Session attaches a tuner to one serve session. base is the session's
// opening predictor config (the de-escalation target); track is its
// sessiontrack entry, which receives the miss-class sketch and swap counts.
// Returns nil — tune nothing — on the nil Tuner.
func (t *Tuner) Session(p Policy, base cli.PredictorFlags, track *sessiontrack.Session) *SessionTuner {
	if t == nil {
		return nil
	}
	t.m.sessions.Inc()
	t.m.active.Add(1)
	st := &SessionTuner{
		t:          t,
		p:          p,
		base:       base,
		track:      track,
		warmupLeft: p.Warmup,
	}
	return st
}

// SessionTuner is one session's observe→decide state. It is owned by the
// goroutine running the session's predictor: ObserveMiss and FrameEnd are
// called only from it and never allocate; Retune (the only cross-goroutine
// entry) is a single atomic store. All methods are nil-safe no-ops.
type SessionTuner struct {
	t     *Tuner
	p     Policy
	base  cli.PredictorFlags
	track *sessiontrack.Session

	// Window accumulators, reset at every evaluation.
	warmupLeft int
	executed   int
	misses     int
	classes    [numClasses]uint32
	// Per-frame sketch deltas, merged into the window (and flushed into
	// track) at each frame boundary.
	frameClasses [numClasses]uint32

	over, under int // consecutive windows voting escalate / de-escalate
	escalated   bool
	swaps       int
	// stopped flips when the swap budget or history cap is exhausted.
	// Atomic because Retune reads it from the admin-verb goroutine.
	stopped atomic.Bool

	force  atomic.Bool // set by Retune, consumed at the next FrameEnd
	closed atomic.Bool
}

// Policy returns the session's effective policy (zero on nil).
func (st *SessionTuner) Policy() Policy {
	if st == nil {
		return Policy{}
	}
	return st.p
}

// Escalated reports whether the session currently runs the escalation
// target.
func (st *SessionTuner) Escalated() bool { return st != nil && st.escalated }

// Swaps returns the number of decisions applied so far.
func (st *SessionTuner) Swaps() int {
	if st == nil {
		return 0
	}
	return st.swaps
}

// Retune asks the state machine to act at the next frame boundary,
// bypassing thresholds and hysteresis (the /sessions/{id}/retune admin
// verb). Escalates when observing, falls back when escalated. Safe from any
// goroutine. Returns false when the tuner is absent or out of budget.
// A forced decision is an operator action: it does not ride the journal, so
// it — unlike policy decisions — is not reproduced by failover replay.
func (st *SessionTuner) Retune() bool {
	if st == nil || st.stopped.Load() {
		return false
	}
	st.force.Store(true)
	return true
}

// ObserveMiss feeds one post-warmup misprediction into the sketch, carrying
// the predictor's attribution of the probe that missed: whether it hit a
// live table entry, whether an alternate component had the right target,
// and whether the update inserted a fresh entry / evicted a live one.
// Correctly predicted records are never observed — the tuner's per-record
// cost is confined to misses, and the executed/miss volume arrives in bulk
// at FrameEnd from accounting the session already keeps.
func (st *SessionTuner) ObserveMiss(tableHit, altCorrect, newEntry, evicted bool) {
	if st == nil {
		return
	}
	var class int
	switch {
	case altCorrect:
		class = ClassMeta
	case tableHit:
		class = ClassAlias
	case newEntry && !evicted:
		// The update inserted the pattern without displacing anyone: first
		// sighting in an uncontended slot — a cold miss.
		class = ClassCold
	default:
		class = ClassConflict
	}
	st.frameClasses[class]++
}

// FrameEnd marks a frame boundary: the frame's executed/miss counts join
// the decision window in bulk, the sketch deltas flush to sessiontrack and,
// when a window has filled (or a forced retune is pending), the policy
// votes. A non-nil Decision tells the caller to swap now — frame boundaries
// are the only legal swap points, because the router's journal preserves
// frame framing and replay must land the swap on the same record. Policy
// warmup is consumed at frame granularity: a frame that starts inside the
// warmup is excluded whole, which is deterministic for a given framing (and
// the journal preserves framing across failover). Steady state returns nil
// without allocating.
func (st *SessionTuner) FrameEnd(executed, misses int) *Decision {
	if st == nil {
		return nil
	}
	if st.frameClasses != [numClasses]uint32{} {
		st.track.AddMissClasses(
			uint64(st.frameClasses[ClassCold]), uint64(st.frameClasses[ClassConflict]),
			uint64(st.frameClasses[ClassAlias]), uint64(st.frameClasses[ClassMeta]))
	}
	if st.stopped.Load() {
		st.frameClasses = [numClasses]uint32{}
		return nil
	}
	if st.warmupLeft > 0 {
		st.warmupLeft -= executed
		st.frameClasses = [numClasses]uint32{}
		return nil
	}
	st.executed += executed
	st.misses += misses
	for i := range st.classes {
		st.classes[i] += st.frameClasses[i]
	}
	st.frameClasses = [numClasses]uint32{}
	forced := st.force.Load()
	if forced {
		st.force.Store(false)
	}
	if !forced && st.executed < st.p.Interval {
		return nil
	}
	rate := 0.0
	if st.executed > 0 {
		rate = float64(st.misses) / float64(st.executed)
	}
	coldShare := 0.0
	if st.misses > 0 {
		coldShare = float64(st.classes[ClassCold]) / float64(st.misses)
	}
	var dec *Decision
	if !st.escalated {
		if rate >= st.p.EscalateMiss && coldShare <= st.p.MaxColdShare {
			st.over++
		} else {
			st.over = 0
		}
		if forced || st.over >= st.p.Hysteresis {
			dec = &Decision{Target: st.p.Target, Escalate: true, Reason: "miss-rate"}
		}
	} else {
		if rate <= st.p.DeescalateMiss {
			st.under++
		} else {
			st.under = 0
		}
		if forced || st.under >= st.p.Hysteresis {
			dec = &Decision{Target: st.base, Escalate: false, Reason: "recovered"}
		}
	}
	if dec != nil && forced {
		dec.Reason = "forced"
	}
	if !forced {
		st.executed, st.misses = 0, 0
		st.classes = [numClasses]uint32{}
	}
	if dec == nil {
		return nil
	}
	st.swaps++
	st.escalated = dec.Escalate
	st.over, st.under = 0, 0
	st.executed, st.misses = 0, 0
	st.classes = [numClasses]uint32{}
	if st.swaps >= st.p.MaxSwaps {
		st.stopped.Store(true)
	}
	return dec
}

// SwapApplied records a successfully applied decision: the swap counters,
// the replayed-record volume, and the session's live predictor name.
func (st *SessionTuner) SwapApplied(d *Decision, predName string, replayedRecords int) {
	if st == nil || st.t == nil {
		return
	}
	st.t.m.swaps.Inc()
	if d.Escalate {
		st.t.m.escalations.Inc()
	} else {
		st.t.m.deescalations.Inc()
	}
	st.t.m.replayed.Add(uint64(replayedRecords))
	st.track.PredictorSwapped(predName)
}

// SwapFailed records a decision the serve layer could not apply (predictor
// construction failed); the tuner stops for this session rather than retry
// into the same error.
func (st *SessionTuner) SwapFailed() {
	if st == nil || st.t == nil {
		return
	}
	st.stopped.Store(true)
	st.t.m.swapFailed.Inc()
}

// HistoryOverflow records that the session outgrew the replay-history cap;
// tuning stops (no further swaps) so bit-reproducibility is preserved.
func (st *SessionTuner) HistoryOverflow() {
	if st == nil || st.t == nil || st.stopped.Load() {
		return
	}
	st.stopped.Store(true)
	st.t.m.overflow.Inc()
}

// Stopped reports whether the tuner has permanently stopped deciding for
// this session (budget spent, history cap hit, or a swap failed). The serve
// layer uses it to stop retaining history.
func (st *SessionTuner) Stopped() bool { return st == nil || st.stopped.Load() }

// Close takes the session off tuner_sessions_active. Safe from any exit
// path (idempotent, nil-safe); the session's reader may still be mid-frame,
// so it never touches the decision state.
func (st *SessionTuner) Close() {
	if st == nil || !st.closed.CompareAndSwap(false, true) {
		return
	}
	st.t.m.active.Add(-1)
}
