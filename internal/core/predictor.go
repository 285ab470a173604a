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
