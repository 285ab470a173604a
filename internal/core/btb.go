package core

import (
	"fmt"

	"github.com/oocsb/ibp/internal/table"
)

// BTB is a branch target buffer: the per-branch last-target predictor used
// by current processors (§3.1, Figure 1). It caches one target per branch
// address in a table of any of the organizations of internal/table; an
// unbounded table gives the paper's "ideal BTB".
//
// The update rule distinguishes the paper's two variants: a standard BTB
// (UpdateAlways) and BTB-2bc, which keeps its target until two consecutive
// mispredictions.
type BTB struct {
	tab  table.Bounded
	rule UpdateRule
	name string

	// Attribution recording (see core.Attributor); off by default.
	attrib bool
	att    AttribState
}

// NewBTB returns a BTB over the given table. A nil table means unbounded
// (the ideal, fully-associative BTB of Figure 2).
func NewBTB(tab table.Bounded, rule UpdateRule) *BTB {
	if tab == nil {
		tab = table.NewUnbounded64()
	}
	return &BTB{tab: tab, rule: rule, name: BTBName(rule, tab.Kind(), tab.Capacity())}
}

// BTBName is the name of a BTB with the given update rule over a table of
// the given kind and capacity, -1 for an unbounded one.
func BTBName(rule UpdateRule, kind string, capacity int) string {
	name := "btb"
	if rule == UpdateTwoMiss {
		name = "btb-2bc"
	}
	if capacity >= 0 {
		name = fmt.Sprintf("%s[%s/%d]", name, kind, capacity)
	}
	return name
}

// key maps the branch address to the table key (word-aligned addresses, so
// the two low bits are dropped).
func (b *BTB) key(pc uint32) uint64 { return uint64(pc >> 2) }

// Predict implements Predictor.
func (b *BTB) Predict(pc uint32) (uint32, bool) {
	pred, _, ok := b.PredictConf(pc)
	return pred, ok
}

// PredictConf implements Component, so a BTB can serve as a hybrid
// component (a BTB is the p=0 end of the path-length spectrum).
func (b *BTB) PredictConf(pc uint32) (uint32, uint8, bool) {
	e := b.tab.Probe(b.key(pc))
	if e == nil {
		return 0, 0, false
	}
	return e.Target, e.Conf, true
}

// Update implements Predictor.
func (b *BTB) Update(pc, target uint32) (uint32, bool) {
	pred, _, ok := b.UpdateConf(pc, target)
	return pred, ok
}

// UpdateConf implements Component: one ProbeOrInsert walk serves the
// prediction and the training.
func (b *BTB) UpdateConf(pc, target uint32) (uint32, uint8, bool) {
	key := b.key(pc)
	var ev0 uint64
	if b.attrib {
		_, ev0, _ = b.tab.Counts()
	}
	e, found := b.tab.ProbeOrInsert(key)
	pred, conf := e.Target, e.Conf
	train(e, found, target, b.rule, confMax(2))
	if b.attrib {
		b.att = AttribState{Pattern: key, Component: -1, Conf: conf, TableHit: found, NewEntry: !found}
		if !found {
			_, ev1, _ := b.tab.Counts()
			b.att.Evicted = ev1 > ev0
		}
	}
	return pred, conf, found
}

// SetAttribution implements Attributor.
func (b *BTB) SetAttribution(on bool) { b.attrib = on }

// Attribution implements Attributor.
func (b *BTB) Attribution() AttribState { return b.att }

// Name implements Predictor.
func (b *BTB) Name() string { return b.name }

// Reset implements Resetter.
func (b *BTB) Reset() { b.tab.Reset() }

// TableStats implements TableStatser.
func (b *BTB) TableStats() []table.Stats { return []table.Stats{b.tab.Stats()} }
