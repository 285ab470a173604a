package core

import (
	"fmt"

	"github.com/oocsb/ibp/internal/table"
)

// TargetCache is the Pattern History Target Cache of Chang, Hao & Patt
// [CHP97] in its gshare(k) configuration, the closest prior design the paper
// compares against (§7): a global k-bit history of conditional-branch
// taken/not-taken outcomes is xor-ed with the branch address to index a
// target table. Its first level observes conditional branches, not indirect
// branch targets — the key difference from the paper's path-based design.
type TargetCache struct {
	tab      table.Bounded
	histBits int
	hist     uint32
	rule     UpdateRule
	name     string
}

// NewTargetCache returns a target cache with a k-bit taken/not-taken history
// over the given table.
func NewTargetCache(histBits int, tableKind string, entries int) (*TargetCache, error) {
	if histBits < 1 || histBits > 30 {
		return nil, fmt.Errorf("core: target cache history bits %d out of range [1,30]", histBits)
	}
	tab, err := table.New(tableKind, entries)
	if err != nil {
		return nil, err
	}
	return &TargetCache{
		tab:      tab,
		histBits: histBits,
		rule:     UpdateTwoMiss,
		name:     TargetCacheName(histBits, tableKind, entries),
	}, nil
}

// TargetCacheName is the name of NewTargetCache(histBits, tableKind,
// entries).
func TargetCacheName(histBits int, tableKind string, entries int) string {
	return fmt.Sprintf("tcache[gshare(%d),%s/%d]", histBits, tableKind, entries)
}

func (t *TargetCache) key(pc uint32) uint64 {
	return uint64((pc >> 2) ^ t.hist)
}

// Predict implements Predictor.
func (t *TargetCache) Predict(pc uint32) (uint32, bool) {
	e := t.tab.Probe(t.key(pc))
	if e == nil {
		return 0, false
	}
	return e.Target, true
}

// Update implements Predictor.
func (t *TargetCache) Update(pc, target uint32) (uint32, bool) {
	e, found := t.tab.ProbeOrInsert(t.key(pc))
	if !found {
		e.Target = target
		return 0, false
	}
	pred := e.Target
	applyTarget(e, target, t.rule)
	return pred, true
}

// ObserveCond implements CondObserver: each conditional branch shifts its
// outcome bit into the global history.
func (t *TargetCache) ObserveCond(pc, target uint32, taken bool) {
	t.hist <<= 1
	if taken {
		t.hist |= 1
	}
	t.hist &= 1<<uint(t.histBits) - 1
}

// ReadsCond implements CondObserver: the first level is the conditional
// history.
func (t *TargetCache) ReadsCond() bool { return true }

// Name implements Predictor.
func (t *TargetCache) Name() string { return t.name }

// Reset implements Resetter.
func (t *TargetCache) Reset() {
	t.hist = 0
	t.tab.Reset()
}
