package core

import (
	"fmt"

	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
)

// SharedHybrid is the §8.1 future-work design: two path-length components
// that share a single prediction table. Each entry carries a "chosen"
// counter recording how often the hybrid actually used its prediction; on a
// component miss, a victim entry whose prediction is being chosen is
// protected from replacement (its counter is decayed instead), so each
// component effectively only occupies storage for the branches it predicts
// best.
type SharedHybrid struct {
	specs   [2]history.Spec
	hist    *history.File
	tab     table.Bounded
	update  UpdateRule
	max     uint8
	scratch []uint32
	name    string
}

// chosenMax caps the per-entry chosen counter (2 bits, matching the
// confidence counter width the paper settles on).
const chosenMax = 3

// NewSharedHybrid builds a shared-table hybrid with component path lengths
// p1 and p2 over a single table of the given kind and size. The global
// history register is shared too (it is the same physical register in
// hardware); each component applies its own compression spec.
func NewSharedHybrid(p1, p2 int, tableKind string, entries int) (*SharedHybrid, error) {
	if p1 == p2 {
		return nil, fmt.Errorf("core: shared hybrid components must differ in path length (both %d)", p1)
	}
	tab, err := table.New(tableKind, entries)
	if err != nil {
		return nil, err
	}
	depth := p1
	if p2 > depth {
		depth = p2
	}
	mkSpec := func(p int) history.Spec {
		s := history.DefaultSpec(p)
		s.Scheme = defaultScheme(tableKind)
		return s
	}
	return &SharedHybrid{
		specs:   [2]history.Spec{mkSpec(p1), mkSpec(p2)},
		hist:    history.NewFile(32, depth),
		tab:     tab,
		update:  UpdateTwoMiss,
		max:     confMax(2),
		scratch: make([]uint32, 0, depth+1),
		name:    fmt.Sprintf("shared-hybrid[p=%d.%d,%s/%d]", p1, p2, tableKind, entries),
	}, nil
}

// keys computes both components' lookup keys under the current history.
func (s *SharedHybrid) keys(pc uint32) [2]uint64 {
	reg := s.hist.Get(pc)
	return [2]uint64{
		s.specs[0].Key(reg, pc, s.scratch),
		s.specs[1].Key(reg, pc, s.scratch),
	}
}

// choose returns the index of the component whose entry wins metaprediction
// (-1 if neither has an entry) and that entry's target. Both components probe
// the one table, so each probe's target and confidence are copied out before
// the next probe: a hit may move the first entry (see table.Bounded).
func (s *SharedHybrid) choose(keys [2]uint64) (int, uint32) {
	var (
		hit    [2]bool
		target [2]uint32
		conf   [2]uint8
	)
	for i, k := range keys {
		if e := s.tab.Probe(k); e != nil {
			hit[i], target[i], conf[i] = true, e.Target, e.Conf
		}
	}
	switch {
	case !hit[0] && !hit[1]:
		return -1, 0
	case !hit[1]:
		return 0, target[0]
	case !hit[0]:
		return 1, target[1]
	case conf[1] > conf[0]:
		return 1, target[1]
	default:
		return 0, target[0]
	}
}

// Predict implements Predictor.
func (s *SharedHybrid) Predict(pc uint32) (uint32, bool) {
	sel, target := s.choose(s.keys(pc))
	return target, sel >= 0
}

// Update implements Predictor.
func (s *SharedHybrid) Update(pc, target uint32) {
	keys := s.keys(pc)
	sel, _ := s.choose(keys)
	// Entry pointers can be invalidated by table mutations (set shuffles,
	// LRU evictions), so each component re-probes by key before training.
	for i := range keys {
		e := s.tab.Probe(keys[i])
		if e == nil {
			// Component miss: insert unless the victim is an entry
			// whose predictions are actively being chosen by the
			// hybrid — then decay its counter and spare it, letting
			// useful entries of either component keep their slots.
			if v := s.tab.Victim(keys[i]); v != nil && v.Chosen > 0 {
				v.Chosen--
				continue
			}
			s.tab.Insert(keys[i]).Target = target
			continue
		}
		if i == sel {
			if e.Target == target {
				if e.Chosen < chosenMax {
					e.Chosen++
				}
			} else if e.Chosen > 0 {
				e.Chosen--
			}
		}
		bumpConf(e, applyTarget(e, target, s.update), s.max)
	}
	s.hist.Get(pc).Push(target)
}

// Name implements Predictor.
func (s *SharedHybrid) Name() string { return s.name }

// Reset implements Resetter.
func (s *SharedHybrid) Reset() {
	s.hist.Reset()
	s.tab.Reset()
}
