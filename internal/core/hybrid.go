package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/table"
)

// Component is a predictor usable inside a hybrid: it exposes the confidence
// of its prediction so the metapredictor can choose between components
// (§6.1).
type Component interface {
	Predictor
	// PredictConf returns the component's prediction together with the
	// value of the predicting entry's confidence counter.
	PredictConf(pc uint32) (target uint32, conf uint8, ok bool)
}

// Hybrid combines two or more component predictors with per-entry confidence
// metaprediction (§6): on each access every component predicts, and the
// target with the highest confidence wins; ties are broken by component
// order (earlier components win). All components train on every branch.
//
// The paper evaluates two-component hybrids of equal table size and
// different path lengths; NewHybrid accepts any number of components, which
// also covers the three-component extension of §8.1.
type Hybrid struct {
	comps []Component
	name  string
	// tables holds the components that are keyed tables, and keyable
	// whether every component is one and no two are the same instance:
	// the hybrid's precondition for being Keyed.
	tables  []KeyedTable
	keyable bool

	// Attribution recording (see core.Attributor); off by default. While
	// enabled, Predict keeps every component's prediction in the
	// preallocated attPred/attOK so Update can detect metapredictor
	// mis-steers (a non-chosen component that was right).
	attrib  bool
	att     AttribState
	attPred []uint32
	attOK   []bool
	// attComp is the chosen component's attribution view for the current
	// Predict→Update pair, fetched lazily in Attribution() so per-record
	// cost stays a pointer store (the component's own lazy work — pattern
	// hashing — then only happens for records someone asks about).
	attComp Attributor
}

// NewHybrid returns a hybrid over the given components, with earlier
// components winning confidence ties.
func NewHybrid(comps ...Component) (*Hybrid, error) {
	if len(comps) < 2 {
		return nil, fmt.Errorf("core: hybrid needs at least 2 components, got %d", len(comps))
	}
	names := make([]string, len(comps))
	var tables []KeyedTable
	keyable := true
	for i, c := range comps {
		names[i] = c.Name()
		t, ok := c.(KeyedTable)
		if !ok || slices.Contains(tables, t) {
			keyable = false
		}
		if ok {
			tables = append(tables, t)
		}
	}
	return &Hybrid{comps: comps, name: "hybrid(" + strings.Join(names, "+") + ")", tables: tables, keyable: keyable}, nil
}

// MustHybrid is NewHybrid for statically-known component lists.
func MustHybrid(comps ...Component) *Hybrid {
	h, err := NewHybrid(comps...)
	if err != nil {
		panic(err)
	}
	return h
}

// rank orders predictions for the metapredictor (§6.1): no prediction ranks
// 0, a prediction 256 plus its entry's confidence counter, so any
// prediction beats none and a higher confidence beats a lower one.
func rank(conf uint8, ok bool) uint16 {
	if !ok {
		return 0
	}
	return 256 + uint16(conf)
}

// beats reports whether a prediction of rank r displaces the winner so far,
// of rank w. Components offer in order, so an earlier one keeps a tie.
// Predict's vote and Vote both choose by it.
func beats(r, w uint16) bool { return r > w }

// vote is the metapredictor (§6.1) as Predict runs it: among the components
// that predict, the highest confidence wins, and an earlier component wins
// a tie.
type vote struct {
	target uint32
	rank   uint16 // the winner's rank, 0 while no component predicts
	comp   int    // the winning component, -1 while no component predicts
}

func newVote() vote { return vote{comp: -1} }

// offer returns the vote after component i casts its prediction;
// components offer in order. A value, so the vote stays in registers.
func (v vote) offer(i int, target uint32, conf uint8, ok bool) vote {
	if r := rank(conf, ok); beats(r, v.rank) {
		return vote{target: target, rank: r, comp: i}
	}
	return v
}

// Predict implements Predictor.
func (h *Hybrid) Predict(pc uint32) (uint32, bool) {
	v := newVote()
	if !h.attrib {
		for i, c := range h.comps {
			t, conf, ok := c.PredictConf(pc)
			v = v.offer(i, t, conf, ok)
		}
		return v.target, v.comp >= 0
	}
	for i, c := range h.comps {
		t, conf, ok := c.PredictConf(pc)
		h.attPred[i], h.attOK[i] = t, ok
		v = v.offer(i, t, conf, ok)
	}
	h.att = AttribState{Component: int16(v.comp)}
	h.attComp = nil
	if v.comp >= 0 {
		h.att.Conf = uint8(v.rank) // a prediction's rank is 256 plus its confidence
		h.att.TableHit = true
		if a, ok := h.comps[v.comp].(Attributor); ok {
			h.attComp = a
		}
	}
	return v.target, v.comp >= 0
}

// Tables implements Keyed: a hybrid's vote is over its components' answers.
// It is keyed when every component is a distinct keyed table, and
// attribution is off.
func (h *Hybrid) Tables(dst []KeyedTable) ([]KeyedTable, bool) {
	ok := h.keyable && !h.attrib
	for _, t := range h.tables {
		if _, keyed := t.KeyHistory(); !keyed {
			ok = false
		}
	}
	return append(dst, h.tables...), ok
}

// Vote returns the answer of a Keyed predictor whose tables answered
// tapes[i][j] to branch j: the one its metapredictor picks, by the rank and
// tie-break Predict's vote uses, or the one table's answer.
func Vote(tapes [][]Answer, j int) Answer {
	w := tapes[0][j]
	for _, t := range tapes[1:] {
		w = w.Offer(t[j])
	}
	return w
}

// Offer returns the vote's winner once a later table answers a, w being
// the winner so far: a if its rank beats w's.
func (w Answer) Offer(a Answer) Answer {
	if beats(uint16(a>>1), uint16(w>>1)) {
		return a
	}
	return w
}

// Update implements Predictor: every component resolves the branch. With
// attribution enabled it additionally records whether a non-chosen component
// had the right target (the metapredictor mis-steer signal); how the chosen
// component's table moved is read lazily by Attribution.
func (h *Hybrid) Update(pc, target uint32) {
	for _, c := range h.comps {
		c.Update(pc, target)
	}
	if !h.attrib {
		return
	}
	chosen := int(h.att.Component)
	for i := range h.comps {
		if i != chosen && h.attOK[i] && h.attPred[i] == target {
			h.att.AltCorrect = true
			break
		}
	}
}

// SetAttribution implements Attributor, propagating to every component that
// records attribution itself.
func (h *Hybrid) SetAttribution(on bool) {
	h.attrib = on
	if on && h.attPred == nil {
		h.attPred = make([]uint32, len(h.comps))
		h.attOK = make([]bool, len(h.comps))
	}
	for _, c := range h.comps {
		if a, ok := c.(Attributor); ok {
			a.SetAttribution(on)
		}
	}
}

// Attribution implements Attributor. The chosen component's detail is
// merged here, lazily — its attribution state stays valid until the next
// Predict, so a caller asking right after Update sees the pair's view.
func (h *Hybrid) Attribution() AttribState {
	if h.attComp != nil {
		ca := h.attComp.Attribution()
		h.att.Pattern, h.att.TableHit = ca.Pattern, ca.TableHit
		h.att.NewEntry, h.att.Evicted = ca.NewEntry, ca.Evicted
		h.attComp = nil
	}
	return h.att
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return h.name }

// Reset implements Resetter.
func (h *Hybrid) Reset() {
	for _, c := range h.comps {
		if r, ok := c.(Resetter); ok {
			r.Reset()
		}
	}
}

// TableStats implements TableStatser: the concatenation of every component's
// table stats, in component order.
func (h *Hybrid) TableStats() []table.Stats {
	var out []table.Stats
	for _, c := range h.comps {
		if ts, ok := c.(TableStatser); ok {
			out = append(out, ts.TableStats()...)
		}
	}
	return out
}

// NewDualPath builds the paper's canonical hybrid: two two-level components
// with path lengths p1 and p2, equal table kind and size, 2-bit confidence
// counters, and the §4–§5 default key construction (DualPathConfig). The p1
// component wins confidence ties.
func NewDualPath(p1, p2 int, tableKind string, entries int) (*Hybrid, error) {
	return NewDualPathSizes(p1, entries, p2, entries, tableKind)
}

// NewDualPathSizes is the §8.1 variant with unequal component sizes: the
// short-path component adapts fast and needs few entries, so most of the
// budget can go to the long-path component (or vice versa).
func NewDualPathSizes(p1, entries1, p2, entries2 int, tableKind string) (*Hybrid, error) {
	a, err := NewTwoLevel(DualPathConfig(p1, tableKind, entries1))
	if err != nil {
		return nil, err
	}
	b, err := NewTwoLevel(DualPathConfig(p2, tableKind, entries2))
	if err != nil {
		return nil, err
	}
	return NewHybrid(a, b)
}

// DualPathConfig is the configuration of one NewDualPath component: path
// length p over a table of the given kind and size, with ⌊24/p⌋ bits per
// target and the layout the paper uses for that table kind.
func DualPathConfig(p int, tableKind string, entries int) Config {
	return Config{
		PathLength: p,
		Precision:  AutoPrecision,
		Scheme:     defaultScheme(tableKind),
		TableKind:  tableKind,
		Entries:    entries,
	}
}

// defaultScheme picks the pattern layout the paper uses for each table
// organization: reverse interleaving for index-based tables, concatenation
// where there is no index to protect (§5.2.1 applies only to limited
// associativity).
func defaultScheme(tableKind string) bits.Scheme {
	switch tableKind {
	case "exact", "unbounded", "fullassoc":
		return bits.Concat
	}
	return bits.Reverse
}
