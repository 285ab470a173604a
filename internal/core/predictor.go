// Package core implements the indirect branch predictors studied in
// Driesen & Hölzle, "Accurate Indirect Branch Prediction" (TRCS97-19 /
// ISCA'98): branch target buffers, the two-level path-based predictor family
// across the full (s, h, p) design space with limited precision and limited
// tables, and hybrid predictors with confidence-counter metaprediction. It
// also implements the related-work and future-work designs the paper
// discusses: a BPST-selected hybrid, a PPM-style cascade, a shared-table
// hybrid with "chosen" counters, and a Chang-style pattern-history target
// cache.
package core

import (
	"fmt"

	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
)

// Predictor is the contract shared by every predictor in this package.
//
// The simulator calls Predict for each dynamic indirect branch and then
// Update with the resolved target. Predict must not modify architectural
// predictor state (histories shift in Update, after resolution, as the
// hardware pipeline would once the branch retires). Update may be called
// without a preceding Predict; predictors recompute whatever they need.
type Predictor interface {
	// Predict returns the predicted target for the branch at pc and
	// whether the predictor produced a prediction at all. A prediction of
	// the wrong target and a missing prediction both count as
	// mispredictions.
	Predict(pc uint32) (target uint32, ok bool)
	// Update informs the predictor of the branch's resolved target.
	Update(pc, target uint32)
	// Name returns a short configuration string for reports.
	Name() string
}

// CondObserver is implemented by predictors that consume conditional-branch
// outcomes: the §3.3 variation that mixes conditional targets into the path
// history, and the Chang et al. pattern-history target cache, whose first
// level is a taken/not-taken history.
type CondObserver interface {
	// ObserveCond records a dynamic conditional branch. target is zero
	// for a not-taken branch.
	ObserveCond(pc, target uint32, taken bool)
	// ReadsCond reports whether this instance's ObserveCond does anything.
	// A predictor that reads conditionals only in some configurations
	// returns false in the others, and the simulation kernel then skips
	// the call on every conditional record (95% of the suite's records).
	ReadsCond() bool
}

// TableHistory is the first level behind one keyed table: the spec the
// table's keys are built with and the global history register they are
// built from.
type TableHistory struct {
	Spec history.Spec
	Reg  *history.Register
}

// Answer is a keyed table's answer to one branch, as the metapredictor and
// the accounting read it: above bit 0 the rank its prediction has in the
// vote (0 for no prediction), and in bit 0 whether it predicted the
// branch's resolved target.
type Answer uint16

// answer is the Answer of a prediction — PredictConf's pred, conf and ok —
// for a branch resolved to target.
func answer(pred uint32, conf uint8, ok bool, target uint32) Answer {
	a := Answer(rank(conf, ok)) << 1
	if ok && pred == target {
		a |= 1
	}
	return a
}

// Predicted reports whether the table predicted a target at all.
func (a Answer) Predicted() bool { return a>>1 != 0 }

// Correct reports whether the table predicted the branch's resolved target.
func (a Answer) Correct() bool { return a&1 != 0 }

// KeyedTable is a target table whose keys are a pure function of the
// indirect-branch stream (§3.2, Figure 3): each branch's key is Spec.Key
// over one global register that every indirect branch pushes its target into
// and nothing else touches. A caller driving many predictors over one trace
// can then key each distinct history once per branch, step each distinct
// table once per branch, and let every predictor that reads a table share
// its answers.
type KeyedTable interface {
	// KeyHistory returns the table's first level and reports whether the
	// table is keyed now. An instance stops qualifying while attribution
	// is on.
	KeyHistory() (TableHistory, bool)
	// StepKeyed predicts and resolves a run of indirect branches in
	// order, keys[j] being branch j's key under its pre-branch history and
	// targets[j] its resolved target: out[j] receives the Answer of what
	// PredictConf would have returned, then the table trains as Update
	// would. It leaves the register alone; the caller pushes the targets
	// into it, or into a copy it writes back.
	StepKeyed(keys []uint64, targets []uint32, out []Answer)
}

// Keyed is implemented by predictors whose prediction is a vote over keyed
// tables: a TwoLevel over its own table, a Hybrid over its components.
type Keyed interface {
	Predictor
	// Tables appends the keyed tables the predictor reads to dst, in the
	// order its vote breaks ties, and reports whether the predictor is
	// keyed now: whether its prediction is the one Vote picks from those
	// tables' answers and Update trains each of them once.
	Tables(dst []KeyedTable) ([]KeyedTable, bool)
}

// Resetter is implemented by predictors whose state can be cleared for
// reuse across benchmark runs.
type Resetter interface {
	Reset()
}

// TableStatser is implemented by predictors that can report their target
// tables' behaviour counters (occupancy, inserts, evictions, resets). The
// telemetry layer uses it to attach per-table snapshots to simulation
// results; predictors without introspectable tables simply don't implement
// it.
type TableStatser interface {
	// TableStats returns one Stats per underlying table, in a stable order.
	TableStats() []table.Stats
}

// UpdateRule selects how a table entry's target is updated after a
// misprediction (§3.1).
type UpdateRule uint8

const (
	// UpdateTwoMiss replaces the stored target only after two consecutive
	// mispredictions by this entry (the "2bc" rule; one hysteresis bit
	// suffices for indirect branches). The paper found it uniformly
	// slightly better and uses it everywhere after §3.2.
	UpdateTwoMiss UpdateRule = iota
	// UpdateAlways replaces the stored target after every misprediction.
	UpdateAlways
)

func (u UpdateRule) String() string {
	switch u {
	case UpdateTwoMiss:
		return "2bc"
	case UpdateAlways:
		return "always"
	}
	return fmt.Sprintf("UpdateRule(%d)", uint8(u))
}

// applyTarget applies the update rule to a valid entry given the resolved
// target. It returns whether the entry predicted correctly before updating.
func applyTarget(e *table.Entry, target uint32, rule UpdateRule) bool {
	if e.Target == target {
		e.Hyst = 0
		return true
	}
	if rule == UpdateAlways || e.Hyst != 0 {
		e.Target = target
		e.Hyst = 0
	} else {
		e.Hyst = 1
	}
	return false
}

// bumpConf adjusts the entry's saturating confidence counter: +1 when the
// entry's prediction was correct, -1 otherwise, within [0, max].
func bumpConf(e *table.Entry, correct bool, max uint8) {
	if correct {
		if e.Conf < max {
			e.Conf++
		}
	} else if e.Conf > 0 {
		e.Conf--
	}
}

// confMax returns the saturation value of an n-bit confidence counter.
func confMax(bits int) uint8 {
	if bits <= 0 {
		bits = 2
	}
	if bits > 8 {
		bits = 8
	}
	return uint8(1<<uint(bits) - 1)
}
