package core

import (
	"fmt"
	"strings"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
)

// AutoPrecision selects the paper's bits-per-target rule b = ⌊24/p⌋ (§4.1).
const AutoPrecision = -1

// Config describes one point in the paper's two-level predictor design
// space. The zero value is not valid; use Defaults() or fill the fields and
// call Validate. Fields left zero take the documented defaults.
type Config struct {
	// PathLength is p, the number of recent targets in the history
	// pattern (§3.2.3). p = 0 degenerates to a BTB.
	PathLength int
	// HistShare is s, the history-sharing region size exponent (§3.2.1):
	// branches agreeing in address bits s..31 share a history register.
	// 2 = per-branch, 31/32 = global. Default (0) = global.
	HistShare int
	// TableShare is h, the history-table sharing exponent (§3.2.2), used
	// only in full-precision mode: branches agreeing in bits h..31 share
	// a history table. 2 = per-branch tables, 31/32 = one global table.
	// Default (0) = per-branch (h=2).
	TableShare int
	// Precision is b, the number of bits kept per history target (§4.1).
	// 0 selects full 32-bit precision with exact keys (the §3
	// unconstrained mode, which requires TableKind "exact");
	// AutoPrecision selects ⌊24/p⌋. With TableKind "exact", a nonzero
	// Precision truncates each target inside the exact key (the §4.1
	// study without the 24-bit pattern cap).
	Precision int
	// StartBit is a, the lowest target address bit selected (§4.1).
	// Default (0) = bit 2, the first bit above the word alignment.
	StartBit int
	// Scheme is the pattern layout (§5.2.1). Default: concatenation for
	// unbounded and fully-associative tables (where layout is irrelevant)
	// — set explicitly for index-based tables; the paper uses Reverse.
	Scheme bits.Scheme
	// KeyOp folds the branch address into the pattern (§4.2). Default:
	// OpXor.
	KeyOp history.KeyOp
	// TableKind is the table organization: "exact" (unbounded,
	// full-precision string keys), "unbounded", "tagless", "assoc1",
	// "assoc2", "assoc4", or "fullassoc". Default: "exact" when
	// Precision is 0, else "unbounded".
	TableKind string
	// Entries is the table capacity for bounded kinds.
	Entries int
	// Update is the target update rule. Default: UpdateTwoMiss.
	Update UpdateRule
	// ConfBits is the width of the per-entry confidence counter used by
	// hybrid metaprediction (§6.1). Default: 2.
	ConfBits int
	// IncludeCond mixes taken conditional-branch targets into the history
	// (the §3.3 variation; the paper found it hurts).
	IncludeCond bool
	// IncludeAddress records the branch address alongside each target in
	// the history (the other §3.3 variation; also hurts). Each executed
	// branch then consumes two history slots.
	IncludeAddress bool
}

// Defaults returns cfg with zero-valued fields replaced by their defaults.
func (cfg Config) Defaults() Config {
	if cfg.HistShare == 0 {
		cfg.HistShare = 32
	}
	if cfg.TableShare == 0 {
		cfg.TableShare = 2
	}
	if cfg.Precision == AutoPrecision {
		cfg.Precision = history.BitsForPath(cfg.PathLength)
	}
	if cfg.StartBit == 0 {
		cfg.StartBit = 2
	}
	if cfg.TableKind == "" {
		if cfg.Precision == 0 && cfg.PathLength > 0 {
			cfg.TableKind = "exact"
		} else {
			cfg.TableKind = "unbounded"
		}
	}
	if cfg.ConfBits == 0 {
		cfg.ConfBits = 2
	}
	return cfg
}

// Validate reports whether the (defaulted) configuration is realizable.
func (cfg Config) Validate() error {
	cfg = cfg.Defaults()
	if cfg.PathLength < 0 || cfg.PathLength > 64 {
		return fmt.Errorf("core: path length %d out of range [0,64]", cfg.PathLength)
	}
	if cfg.Precision < 0 {
		return fmt.Errorf("core: precision %d invalid", cfg.Precision)
	}
	// Exact (byte-key) tables have no pattern width limit; uint64-key
	// tables cap the pattern at 32 bits (the paper stays within 24).
	if cfg.Precision > 0 && cfg.TableKind != "exact" && cfg.PathLength*cfg.Precision > 32 {
		return fmt.Errorf("core: pattern %d×%d bits exceeds 32", cfg.PathLength, cfg.Precision)
	}
	if cfg.Precision > 32 {
		return fmt.Errorf("core: precision %d exceeds 32 bits", cfg.Precision)
	}
	if cfg.Precision == 0 && cfg.PathLength > 0 && cfg.TableKind != "exact" {
		return fmt.Errorf("core: full precision requires TableKind \"exact\", got %q", cfg.TableKind)
	}
	if cfg.StartBit < 2 || cfg.StartBit > 31 {
		return fmt.Errorf("core: start bit %d out of range [2,31]", cfg.StartBit)
	}
	if cfg.ConfBits < 1 || cfg.ConfBits > 8 {
		return fmt.Errorf("core: confidence bits %d out of range [1,8]", cfg.ConfBits)
	}
	switch cfg.TableKind {
	case "exact", "unbounded":
	default:
		if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
			return fmt.Errorf("core: table %q needs a power-of-two entry count, got %d", cfg.TableKind, cfg.Entries)
		}
		// Check the kind and size without building the table: NewTwoLevel
		// builds the one it keeps.
		if err := table.Check(cfg.TableKind, cfg.Entries); err != nil {
			return err
		}
	}
	return nil
}

// Keyed reports whether a TwoLevel of this configuration keys its table by a
// pure function of the indirect-branch stream (see KeyedTable): compressed
// keys over one global history that neither §3.3 variation feeds.
func (cfg Config) Keyed() bool {
	cfg = cfg.Defaults()
	return cfg.TableKind != "exact" && cfg.HistShare >= 32 && !cfg.IncludeCond && !cfg.IncludeAddress
}

// HistorySpec returns the (defaulted) configuration's history pattern spec:
// the first level that compressed-key mode builds its keys from.
func (cfg Config) HistorySpec() history.Spec {
	cfg = cfg.Defaults()
	return history.Spec{
		PathLength: cfg.PathLength,
		Bits:       cfg.Precision,
		StartBit:   cfg.StartBit,
		Scheme:     cfg.Scheme,
		Op:         cfg.KeyOp,
	}
}

// Name renders a compact configuration string.
func (cfg Config) Name() string {
	cfg = cfg.Defaults()
	var b strings.Builder
	fmt.Fprintf(&b, "2lev[p=%d", cfg.PathLength)
	if cfg.HistShare < 32 {
		fmt.Fprintf(&b, ",s=%d", cfg.HistShare)
	}
	if cfg.TableKind == "exact" {
		fmt.Fprintf(&b, ",full,h=%d", cfg.TableShare)
	} else if cfg.PathLength > 0 {
		fmt.Fprintf(&b, ",b=%d,%v,%v", cfg.Precision, cfg.Scheme, cfg.KeyOp)
	}
	if cfg.TableKind == "exact" || cfg.TableKind == "unbounded" {
		fmt.Fprintf(&b, ",%s", cfg.TableKind)
	} else {
		fmt.Fprintf(&b, ",%s/%d", cfg.TableKind, cfg.Entries)
	}
	if cfg.Update != UpdateTwoMiss {
		fmt.Fprintf(&b, ",%v", cfg.Update)
	}
	b.WriteString("]")
	return b.String()
}

// TwoLevel is the paper's two-level indirect branch predictor (Figure 3 /
// Figure 8): the first level is a (possibly shared) history of recent branch
// targets; the second level is a table of predicted targets keyed by the
// history pattern combined with the branch address.
type TwoLevel struct {
	cfg     Config
	spec    history.Spec
	hist    *history.File
	tab     table.Bounded // compressed-key mode
	exact   *table.Exact  // full-precision mode
	max     uint8
	scratch []uint32
	// keyBuf holds the last exact key's bytes for attribution's Pattern
	// hash; nothing else builds them.
	keyBuf []byte
	// tracked is decided once, at construction: the history file keeps
	// every register's compressed pattern current on push, so key reads it
	// directly. Untrackable specs (PingPong, p = 0) go through Spec.Pattern.
	tracked bool

	// Full-precision mode keys the exact table by the table selector
	// (pc>>selShift, or 0 when one table serves every branch) and the
	// register's targets. With truncated precision, the register holds each
	// target's kept field instead of the target (field), so the key is the
	// register's contents as they stand. hashMask is ANDed into the key's
	// hash (all ones but in tests that force every key into one hash
	// bucket).
	selShift uint
	selAll   bool
	field    bool
	hashMask uint64

	// Attribution recording (see core.Attributor): disabled by default so
	// the hot loop pays only a flag check; when enabled, UpdateConf fills
	// att with the detail of the branch it stepped.
	attrib bool
	att    AttribState
	// attPatStale marks att.Pattern as not yet hashed from keyBuf (exact
	// tables only); Attribution() resolves it on demand.
	attPatStale bool
	// tabEvicts caches whether tab is bounded (only bounded tables evict);
	// false for exact and unbounded tables, whose attribution skips the
	// eviction-counter reads entirely.
	tabEvicts bool
}

// NewTwoLevel builds a predictor for the configuration.
func NewTwoLevel(cfg Config) (*TwoLevel, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TwoLevel{
		cfg:     cfg,
		spec:    cfg.HistorySpec(),
		hist:    history.NewFile(cfg.HistShare, cfg.PathLength),
		max:     confMax(cfg.ConfBits),
		scratch: make([]uint32, 0, cfg.PathLength+1),
		keyBuf:  make([]byte, 0, 4*(cfg.PathLength+1)),
	}
	if cfg.TableKind == "exact" {
		t.exact = table.NewExact(cfg.PathLength)
		t.selShift = uint(max(cfg.TableShare, 2))
		t.selAll = cfg.TableShare >= 32
		t.field = cfg.Precision > 0
		t.hashMask = exactHashMask
		t.hist.TrackSum()
		return t, nil
	}
	tab, err := table.New(cfg.TableKind, cfg.Entries)
	if err != nil {
		return nil, err
	}
	t.tab = tab
	// Only bounded tables can evict, so only they pay the around-the-update
	// counter reads that attribution uses to detect displacement.
	t.tabEvicts = tab.Capacity() >= 0
	// Compressed-key mode reads the pattern on every probe; maintain it
	// incrementally on push instead of reassembling it from all p targets.
	t.tracked = t.hist.Track(t.spec)
	return t, nil
}

// MustTwoLevel is NewTwoLevel for statically-known configurations; it panics
// on configuration errors.
func MustTwoLevel(cfg Config) *TwoLevel {
	t, err := NewTwoLevel(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the (defaulted) configuration.
func (t *TwoLevel) Config() Config { return t.cfg }

// exactHashMask is ANDed into every exact key's hash. Tests set it to 0 to
// force every key into one bucket, where only the full key comparison tells
// keys apart.
var exactHashMask = ^uint64(0)

// selMul spreads an exact key's table selector over the hash bits.
const selMul = 0x9E3779B97F4A7C15

// exactKey sets k to the full-precision key of the branch at pc under reg's
// contents, which it reads in place. (Filling the caller's key, rather than
// returning one, keeps the compiler from copying it through a stall on the
// hot path.)
func (t *TwoLevel) exactKey(k *table.ExactKey, reg *history.Register, pc uint32) {
	var sel uint32
	if !t.selAll {
		sel = pc >> t.selShift
	}
	k.Newer, k.Older = reg.Path()
	k.Hash, k.Sel = (reg.Sum()^uint64(sel)*selMul)&t.hashMask, sel
}

// kept returns what the history records of v, a target or (IncludeAddress)
// a branch address: v, or in full-precision mode with truncated precision
// the field of v the key keeps.
func (t *TwoLevel) kept(v uint32) uint32 {
	if t.field {
		return bits.Field(v, t.cfg.StartBit, t.cfg.Precision)
	}
	return v
}

// key builds the compressed-mode lookup key for the branch at pc from reg's
// pattern (§4.2).
func (t *TwoLevel) key(reg *history.Register, pc uint32) uint64 {
	pat := reg.TrackedPattern()
	if !t.tracked {
		pat = t.spec.Pattern(reg, t.scratch)
	}
	return t.spec.Fold(pat, pc)
}

// probe returns the entry the branch at pc selects under the current
// history, or nil, changing nothing but the table's recency state.
func (t *TwoLevel) probe(pc uint32) *table.Entry {
	reg := t.hist.Get(pc)
	if t.exact != nil {
		var k table.ExactKey
		t.exactKey(&k, reg, pc)
		return t.exact.Probe(&k)
	}
	return t.tab.Probe(t.key(reg, pc))
}

// Predict implements Predictor.
func (t *TwoLevel) Predict(pc uint32) (uint32, bool) {
	pred, _, ok := t.PredictConf(pc)
	return pred, ok
}

// PredictConf implements Component: it additionally returns the entry's
// confidence counter for hybrid metaprediction.
func (t *TwoLevel) PredictConf(pc uint32) (uint32, uint8, bool) {
	e := t.probe(pc)
	if e == nil {
		return 0, 0, false
	}
	return e.Target, e.Conf, true
}

// Update implements Predictor.
func (t *TwoLevel) Update(pc, target uint32) (uint32, bool) {
	pred, _, ok := t.UpdateConf(pc, target)
	return pred, ok
}

// UpdateConf implements Component. It is StepKeyed's loop body on the
// predictor's own register: the branch's key under the pre-branch history,
// one ProbeOrInsert walk that yields the prediction and the entry to train,
// and the push of the resolved target.
func (t *TwoLevel) UpdateConf(pc, target uint32) (uint32, uint8, bool) {
	reg := t.hist.Get(pc)
	var (
		e     *table.Entry
		found bool
		key   uint64
		ev0   uint64
	)
	if t.attrib && t.tabEvicts {
		_, ev0, _ = t.tab.Counts()
	}
	if t.exact != nil {
		var k table.ExactKey
		t.exactKey(&k, reg, pc)
		e, found = t.exact.ProbeOrInsert(&k)
	} else {
		key = t.key(reg, pc)
		e, found = t.tab.ProbeOrInsert(key)
	}
	pred, conf := e.Target, e.Conf
	train(e, found, target, t.cfg.Update, t.max)
	if t.attrib {
		t.attribute(reg, pc, key, conf, found, ev0)
	}
	if t.cfg.IncludeAddress {
		reg.Push(t.kept(pc))
	}
	reg.Push(t.kept(target))
	return pred, conf, found
}

// attribute records the attribution of the branch UpdateConf is stepping,
// before its target enters reg. key is the compressed-mode key; ev0 the
// table's eviction count before the walk.
func (t *TwoLevel) attribute(reg *history.Register, pc uint32, key uint64, conf uint8, found bool, ev0 uint64) {
	t.att = AttribState{Pattern: key, Component: -1, Conf: conf, TableHit: found, NewEntry: !found}
	if t.exact != nil {
		// Hashing the full key is the expensive part of attribution;
		// keep its bytes for Attribution(), which miss-driven consumers
		// (the tuner) call far less than once per record. The register
		// already holds the kept fields, so the key takes each whole.
		t.keyBuf = history.FullKey(t.keyBuf[:0], reg, pc, t.cfg.TableShare, t.cfg.StartBit, 0)
		t.attPatStale = true
	}
	if !found && t.tabEvicts {
		_, ev1, _ := t.tab.Counts()
		t.att.Evicted = ev1 > ev0
	}
}

// KeyHistory implements KeyedTable: a TwoLevel is keyed when its
// configuration is (Config.Keyed) and attribution is off.
func (t *TwoLevel) KeyHistory() (TableHistory, bool) {
	return TableHistory{Spec: t.spec, Reg: t.hist.Get(0)}, t.cfg.Keyed() && !t.attrib
}

// Tables implements Keyed: a TwoLevel's vote is its one table's answer.
func (t *TwoLevel) Tables(dst []KeyedTable) ([]KeyedTable, bool) {
	_, ok := t.KeyHistory()
	return append(dst, t), ok
}

// StepKeyed implements KeyedTable: UpdateConf's walk and training over a
// run of keys built elsewhere. Each table organisation gets a loop of its
// own, so the walk is a direct call rather than one through table.Bounded.
func (t *TwoLevel) StepKeyed(keys []uint64, targets []uint32, out []Answer) {
	out = out[:len(keys)]
	targets = targets[:len(keys)]
	rule, max := t.cfg.Update, t.max
	switch tab := t.tab.(type) {
	case *table.SetAssoc:
		for j, key := range keys {
			e, found := tab.ProbeOrInsert(key)
			out[j] = answer(e.Target, e.Conf, found, targets[j])
			train(e, found, targets[j], rule, max)
		}
	case *table.Tagless:
		for j, key := range keys {
			e, found := tab.ProbeOrInsert(key)
			out[j] = answer(e.Target, e.Conf, found, targets[j])
			train(e, found, targets[j], rule, max)
		}
	case *table.FullAssoc:
		for j, key := range keys {
			e, found := tab.ProbeOrInsert(key)
			out[j] = answer(e.Target, e.Conf, found, targets[j])
			train(e, found, targets[j], rule, max)
		}
	case *table.Unbounded64:
		for j, key := range keys {
			e, found := tab.ProbeOrInsert(key)
			out[j] = answer(e.Target, e.Conf, found, targets[j])
			train(e, found, targets[j], rule, max)
		}
	default:
		for j, key := range keys {
			e, found := t.tab.ProbeOrInsert(key)
			out[j] = answer(e.Target, e.Conf, found, targets[j])
			train(e, found, targets[j], rule, max)
		}
	}
}

// ObserveCond implements CondObserver for the §3.3 variation: when enabled,
// taken conditional-branch targets enter the history and dilute it.
func (t *TwoLevel) ObserveCond(pc, target uint32, taken bool) {
	if !t.cfg.IncludeCond || !taken {
		return
	}
	reg := t.hist.Get(pc)
	if t.cfg.IncludeAddress {
		reg.Push(t.kept(pc))
	}
	reg.Push(t.kept(target))
}

// ReadsCond implements CondObserver: only the §3.3 IncludeCond variation
// reads conditionals.
func (t *TwoLevel) ReadsCond() bool { return t.cfg.IncludeCond }

// Name implements Predictor.
func (t *TwoLevel) Name() string { return t.cfg.Name() }

// SetAttribution implements Attributor: it enables per-prediction
// attribution recording (off by default; recording costs a few stores per
// branch, so the sweep hot paths never pay for it).
func (t *TwoLevel) SetAttribution(on bool) { t.attrib = on }

// Attribution implements Attributor: the detail the most recent Update
// recorded. For exact tables the Pattern hash is computed here, lazily —
// keyBuf still holds that branch's key, because only the next Update
// overwrites it.
func (t *TwoLevel) Attribution() AttribState {
	if t.attPatStale {
		t.att.Pattern = fnv64(t.keyBuf)
		t.attPatStale = false
	}
	return t.att
}

// TableStats implements TableStatser.
func (t *TwoLevel) TableStats() []table.Stats {
	if t.exact != nil {
		return []table.Stats{t.exact.Stats()}
	}
	return []table.Stats{t.tab.Stats()}
}

// Reset implements Resetter.
func (t *TwoLevel) Reset() {
	t.hist.Reset()
	if t.exact != nil {
		t.exact.Reset()
	} else {
		t.tab.Reset()
	}
}
