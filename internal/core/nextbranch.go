package core

import (
	"fmt"

	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
)

// NextBranch is the paper's §8.1 run-ahead extension: besides the target of
// the current branch, each table entry learns the address of the *next*
// indirect branch that followed it. A front end that trusts both predictions
// can chain them and fetch arbitrarily far ahead of execution; the
// next-address also disambiguates branches on different conditional paths
// that share the same indirect-branch path.
//
// The implementation wraps the standard two-level structure: the entry that
// predicts branch i is remembered until branch i+1 resolves, at which point
// its next-branch field trains on branch i+1's address.
type NextBranch struct {
	spec    history.Spec
	hist    *history.Register
	tab     table.Bounded
	update  UpdateRule
	scratch []uint32
	// pendingKey identifies the entry awaiting its next-branch address;
	// pendingValid gates the first branch of a run.
	pendingKey   uint64
	pendingValid bool
	name         string
}

// NewNextBranch builds a run-ahead predictor with the given path length over
// a bounded table (the §4–§5 default key construction, global history).
func NewNextBranch(p int, tableKind string, entries int) (*NextBranch, error) {
	cfg := Config{
		PathLength: p,
		Precision:  AutoPrecision,
		Scheme:     defaultScheme(tableKind),
		TableKind:  tableKind,
		Entries:    entries,
	}
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TableKind == "exact" {
		return nil, fmt.Errorf("core: next-branch predictor needs a uint64-key table")
	}
	tab, err := table.New(cfg.TableKind, cfg.Entries)
	if err != nil {
		return nil, err
	}
	nb := &NextBranch{
		spec: history.Spec{
			PathLength: cfg.PathLength,
			Bits:       cfg.Precision,
			StartBit:   cfg.StartBit,
			Scheme:     cfg.Scheme,
			Op:         cfg.KeyOp,
		},
		hist:    history.NewRegister(cfg.PathLength),
		tab:     tab,
		update:  cfg.Update,
		scratch: make([]uint32, 0, cfg.PathLength+1),
		name:    fmt.Sprintf("nextbranch[p=%d,%s/%d]", p, cfg.TableKind, cfg.Entries),
	}
	nb.hist.Track(nb.spec)
	return nb, nil
}

func (n *NextBranch) key(pc uint32) uint64 {
	return n.spec.Key(n.hist, pc, n.scratch)
}

// Predict implements Predictor.
func (n *NextBranch) Predict(pc uint32) (uint32, bool) {
	e := n.tab.Probe(n.key(pc))
	if e == nil {
		return 0, false
	}
	return e.Target, true
}

// PredictNext returns the predicted address of the indirect branch that will
// execute after the one at pc.
func (n *NextBranch) PredictNext(pc uint32) (uint32, bool) {
	e := n.tab.Probe(n.key(pc))
	if e == nil || e.Next == 0 {
		return 0, false
	}
	return e.Next, true
}

// Update implements Predictor: it trains the previous entry's next-branch
// address with pc, predicts and trains the current entry's target, and
// shifts the history.
func (n *NextBranch) Update(pc, target uint32) (uint32, bool) {
	if n.pendingValid {
		if pe := n.tab.Probe(n.pendingKey); pe != nil {
			// The next-branch field follows the same two-miss
			// hysteresis idea as targets: replace only when the
			// stored address is wrong (it shares the entry's
			// hysteresis bit with the target, a deliberate
			// simplification).
			if pe.Next == 0 || pe.Next != pc {
				pe.Next = pc
			}
		}
	}
	key := n.key(pc)
	e, found := n.tab.ProbeOrInsert(key)
	var pred uint32
	if found {
		pred = e.Target
		applyTarget(e, target, n.update)
	} else {
		e.Target = target
	}
	n.pendingKey = key
	n.pendingValid = true
	n.hist.Push(target)
	return pred, found
}

// Name implements Predictor.
func (n *NextBranch) Name() string { return n.name }

// Reset implements Resetter.
func (n *NextBranch) Reset() {
	n.hist.Reset()
	n.tab.Reset()
	n.pendingValid = false
}
