package core

import "fmt"

// BPSTHybrid selects between two component predictors with a branch
// predictor selection table ([McFar93], discussed in §6.1): a table of
// two-bit saturating counters indexed by branch address tracks which
// component has been more accurate for that branch. It is the coarser
// per-branch alternative to the paper's per-pattern confidence counters.
type BPSTHybrid struct {
	a, b Component
	sel  []uint8 // 2-bit counters; >= 2 selects component b
	mask uint32
	name string
}

// NewBPSTHybrid returns a BPST-selected hybrid with the given selector table
// size (a power of two; the selector is indexed by the word-aligned branch
// address).
func NewBPSTHybrid(a, b Component, selectorEntries int) (*BPSTHybrid, error) {
	if selectorEntries <= 0 || selectorEntries&(selectorEntries-1) != 0 {
		return nil, fmt.Errorf("core: BPST selector size must be a positive power of two, got %d", selectorEntries)
	}
	if repeated([]Component{a}, b) {
		return nil, fmt.Errorf("core: BPST hybrid components are one instance (%s)", a.Name())
	}
	return &BPSTHybrid{
		a:    a,
		b:    b,
		sel:  make([]uint8, selectorEntries),
		mask: uint32(selectorEntries - 1),
		name: fmt.Sprintf("bpst(%s|%s)", a.Name(), b.Name()),
	}, nil
}

func (h *BPSTHybrid) idx(pc uint32) uint32 { return (pc >> 2) & h.mask }

// Predict implements Predictor: the selected component's prediction is used;
// if it has none, the other component's prediction is used instead.
func (h *BPSTHybrid) Predict(pc uint32) (uint32, bool) {
	ta, oka := h.a.Predict(pc)
	tb, okb := h.b.Predict(pc)
	return h.pick(pc, ta, oka, tb, okb)
}

// pick is the prediction from the components' (target, ok) pairs under the
// branch's selector counter.
func (h *BPSTHybrid) pick(pc uint32, ta uint32, oka bool, tb uint32, okb bool) (uint32, bool) {
	if h.sel[h.idx(pc)] >= 2 {
		ta, oka, tb, okb = tb, okb, ta, oka
	}
	if oka {
		return ta, true
	}
	return tb, okb
}

// Update implements Predictor: both components step, the prediction is
// picked from their pre-training predictions, and the selector counter
// moves toward the component that was correct when exactly one was.
func (h *BPSTHybrid) Update(pc, target uint32) (uint32, bool) {
	ta, oka := h.a.Update(pc, target)
	tb, okb := h.b.Update(pc, target)
	pred, ok := h.pick(pc, ta, oka, tb, okb)
	aCorrect := oka && ta == target
	bCorrect := okb && tb == target
	i := h.idx(pc)
	switch {
	case bCorrect && !aCorrect:
		if h.sel[i] < 3 {
			h.sel[i]++
		}
	case aCorrect && !bCorrect:
		if h.sel[i] > 0 {
			h.sel[i]--
		}
	}
	return pred, ok
}

// Name implements Predictor.
func (h *BPSTHybrid) Name() string { return h.name }

// Reset implements Resetter.
func (h *BPSTHybrid) Reset() {
	clear(h.sel)
	for _, c := range []Component{h.a, h.b} {
		if r, ok := c.(Resetter); ok {
			r.Reset()
		}
	}
}
