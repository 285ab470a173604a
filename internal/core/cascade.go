package core

import (
	"fmt"
	"slices"
	"strings"
)

// Cascade is a PPM-style predictor in the spirit of Chen, Coffey & Mudge
// [CCM96] (discussed in §7): an ordered bank of two-level components with
// strictly decreasing path lengths. Prediction uses the longest-path
// component that has a matching pattern, falling back to progressively
// shorter paths; the paper observes that a hybrid with different path
// lengths can mimic this behaviour, and this type exists to test that claim
// at equal hardware budget (experiment ext-ppm).
type Cascade struct {
	comps []*TwoLevel // longest path first
	name  string
}

// NewCascade builds a cascade from components with the given path lengths
// (deduplicated, sorted descending), each with its own table of the given
// kind and size.
func NewCascade(paths []int, tableKind string, entries int) (*Cascade, error) {
	if len(paths) < 2 {
		return nil, fmt.Errorf("core: cascade needs at least 2 path lengths, got %d", len(paths))
	}
	for _, p := range paths {
		if p < 0 {
			return nil, fmt.Errorf("core: negative path length %d", p)
		}
	}
	c := &Cascade{name: CascadeName(paths, tableKind, entries)}
	for _, p := range cascadeOrder(paths) {
		t, err := NewTwoLevel(DualPathConfig(p, tableKind, entries))
		if err != nil {
			return nil, err
		}
		c.comps = append(c.comps, t)
	}
	return c, nil
}

// cascadeOrder returns the distinct path lengths, longest first.
func cascadeOrder(paths []int) []int {
	ordered := slices.Clone(paths)
	slices.Sort(ordered)
	ordered = slices.Compact(ordered)
	slices.Reverse(ordered)
	return ordered
}

// CascadeName is the name of NewCascade(paths, tableKind, entries).
func CascadeName(paths []int, tableKind string, entries int) string {
	names := make([]string, 0, len(paths))
	for _, p := range cascadeOrder(paths) {
		names = append(names, fmt.Sprintf("%d", p))
	}
	return fmt.Sprintf("ppm[p=%s,%s/%d]", strings.Join(names, "."), tableKind, entries)
}

// Predict implements Predictor: the first (longest-path) component with a
// prediction wins.
func (c *Cascade) Predict(pc uint32) (uint32, bool) {
	for _, comp := range c.comps {
		if t, ok := comp.Predict(pc); ok {
			return t, true
		}
	}
	return 0, false
}

// Update implements Predictor: all components train on every branch, as in
// a PPM model where every context order is updated, and the first
// (longest-path) component with a prediction wins.
func (c *Cascade) Update(pc, target uint32) (uint32, bool) {
	var pred uint32
	ok := false
	for _, comp := range c.comps {
		if t, hit := comp.Update(pc, target); hit && !ok {
			pred, ok = t, true
		}
	}
	return pred, ok
}

// Name implements Predictor.
func (c *Cascade) Name() string { return c.name }

// Reset implements Resetter.
func (c *Cascade) Reset() {
	for _, comp := range c.comps {
		comp.Reset()
	}
}
