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
		if _, err := table.New(cfg.TableKind, cfg.Entries); err != nil {
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
	tab     table.Bounded       // compressed-key mode
	exact   *table.UnboundedStr // full-precision mode
	max     uint8
	scratch []uint32
	keyBuf  []byte
	// tracked is decided once, at construction: the history file keeps
	// every register's compressed pattern current on push, so key reads it
	// directly. Untrackable specs (PingPong, p = 0) go through Spec.Pattern.
	tracked bool

	// Probe memo: the simulator calls Predict(pc) immediately followed by
	// Update(pc, target), and nothing moves the history in between, so the
	// key (and the entry it selects) computed by the prediction probe is
	// still valid when the update arrives. Caching it halves the per-branch
	// key-assembly and table-lookup work — the hot loop of every
	// figure-class sweep. The memo is invalidated by anything that shifts
	// the history or mutates the table (Update itself, ObserveCond, Reset).
	memoPC    uint32
	memoKey   uint64
	memoReg   *history.Register
	memoEntry *table.Entry
	memoValid bool

	// Attribution recording (see core.Attributor): disabled by default so
	// the hot loop pays only a flag check; when enabled, probe and Update
	// fill att with the detail of the current Predict/Update pair.
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
		t.exact = table.NewUnboundedStr()
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

// key builds the compressed-mode lookup key for the branch at pc from reg's
// pattern (§4.2).
func (t *TwoLevel) key(reg *history.Register, pc uint32) uint64 {
	pat := reg.TrackedPattern()
	if !t.tracked {
		pat = t.spec.Pattern(reg, t.scratch)
	}
	return t.spec.Fold(pat, pc)
}

// probe locates the entry for the branch at pc under the current history,
// without modifying prediction state beyond recency, and memoizes the result
// for the Update call that typically follows (see the memo fields).
func (t *TwoLevel) probe(pc uint32) *table.Entry {
	reg := t.hist.Get(pc)
	var e *table.Entry
	if t.exact != nil {
		t.keyBuf = history.FullKey(t.keyBuf[:0], reg, pc, t.cfg.TableShare, t.cfg.StartBit, t.cfg.Precision)
		e = t.exact.Probe(t.keyBuf)
	} else {
		t.memoKey = t.key(reg, pc)
		e = t.tab.Probe(t.memoKey)
	}
	t.memoPC, t.memoReg, t.memoEntry, t.memoValid = pc, reg, e, true
	if t.attrib {
		t.att = AttribState{Component: -1, TableHit: e != nil}
		if t.exact != nil {
			// Hashing the full key is the expensive part of attribution;
			// defer it to Attribution(), which miss-driven consumers (the
			// tuner) call far less than once per record.
			t.attPatStale = true
		} else {
			t.att.Pattern = t.memoKey
		}
		if e != nil {
			t.att.Conf = e.Conf
		}
	}
	return e
}

// Predict implements Predictor.
func (t *TwoLevel) Predict(pc uint32) (uint32, bool) {
	e := t.probe(pc)
	if e == nil {
		return 0, false
	}
	return e.Target, true
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

// Update implements Predictor: it trains the table entry under the
// pre-branch history, then shifts the history. When the immediately
// preceding Predict/PredictConf probed the same branch, its memoized key and
// entry are reused instead of recomputed (the history cannot have moved in
// between — only Update, ObserveCond, and Reset shift it, and each clears
// the memo).
func (t *TwoLevel) Update(pc, target uint32) {
	var (
		reg   *history.Register
		e     *table.Entry
		found bool
		ev0   uint64
	)
	if t.attrib && t.tabEvicts {
		_, ev0, _ = t.tab.Counts()
	}
	if t.memoValid && t.memoPC == pc {
		reg, e, found = t.memoReg, t.memoEntry, t.memoEntry != nil
		if !found {
			if t.exact != nil {
				e = t.exact.Insert(t.keyBuf) // keyBuf still holds pc's key
			} else {
				e = t.tab.Insert(t.memoKey)
			}
		}
	} else {
		reg = t.hist.Get(pc)
		if t.exact != nil {
			t.keyBuf = history.FullKey(t.keyBuf[:0], reg, pc, t.cfg.TableShare, t.cfg.StartBit, t.cfg.Precision)
			e, found = t.exact.ProbeOrInsert(t.keyBuf)
		} else {
			e, found = t.tab.ProbeOrInsert(t.key(reg, pc))
		}
	}
	t.train(e, found, target)
	if t.attrib && !found {
		t.att.NewEntry = true
		if t.tabEvicts {
			_, ev1, _ := t.tab.Counts()
			t.att.Evicted = ev1 > ev0
		}
	}
	t.memoValid = false
	if t.cfg.IncludeAddress {
		reg.Push(pc)
	}
	reg.Push(target)
}

// train applies the resolved target to e, the entry the branch's key
// selected: a fresh entry (found false) takes the target; a found one goes
// through the update rule, and its confidence counter moves.
func (t *TwoLevel) train(e *table.Entry, found bool, target uint32) {
	if !found {
		e.Target = target
		return
	}
	bumpConf(e, applyTarget(e, target, t.cfg.Update), t.max)
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

// StepKeyed implements KeyedTable. One ProbeOrInsert walk per branch serves
// both the prediction and the update, as Predict's probe and Update's
// insert on a miss would.
func (t *TwoLevel) StepKeyed(keys []uint64, targets []uint32, out []Answer) {
	t.memoValid = false // the walks may move the memoized entry
	out = out[:len(keys)]
	targets = targets[:len(keys)]
	for j, key := range keys {
		e, found := t.tab.ProbeOrInsert(key)
		out[j] = answer(e.Target, e.Conf, found, targets[j])
		t.train(e, found, targets[j])
	}
}

// ObserveCond implements CondObserver for the §3.3 variation: when enabled,
// taken conditional-branch targets enter the history and dilute it.
func (t *TwoLevel) ObserveCond(pc, target uint32, taken bool) {
	if !t.cfg.IncludeCond || !taken {
		return
	}
	t.memoValid = false // the push below moves the history under any memoized key
	reg := t.hist.Get(pc)
	if t.cfg.IncludeAddress {
		reg.Push(pc)
	}
	reg.Push(target)
}

// ReadsCond implements CondObserver: only the §3.3 IncludeCond variation
// reads conditionals.
func (t *TwoLevel) ReadsCond() bool { return t.cfg.IncludeCond }

// Name implements Predictor.
func (t *TwoLevel) Name() string { return t.cfg.Name() }

// Utilization reports the fraction of table entries in use (meaningful for
// bounded tables; the paper quotes it when motivating interleaving, §5.2.1).
func (t *TwoLevel) Utilization() float64 {
	if t.tab != nil {
		return t.tab.Utilization()
	}
	return 1
}

// Patterns returns the number of distinct patterns currently stored, the
// statistic the paper quotes per path length in §5.1 (meaningful for
// unbounded tables).
func (t *TwoLevel) Patterns() int {
	if t.exact != nil {
		return t.exact.Len()
	}
	if u, ok := t.tab.(*table.Unbounded64); ok {
		return u.Len()
	}
	return -1
}

// SetAttribution implements Attributor: it enables per-prediction
// attribution recording (off by default; recording costs a few stores per
// branch, so the sweep hot paths never pay for it).
func (t *TwoLevel) SetAttribution(on bool) { t.attrib = on }

// Attribution implements Attributor: the detail recorded for the most
// recent Predict→Update pair. For exact tables the Pattern hash is computed
// here, lazily — keyBuf still holds the pair's key, because only the next
// probe or update overwrites it.
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
	t.memoValid = false
	t.hist.Reset()
	if t.exact != nil {
		t.exact.Reset()
	} else {
		t.tab.Reset()
	}
}
