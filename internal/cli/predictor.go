// Package cli holds what the command-line tools share. The flag-level
// predictor construction: ibpsim, ibpreport and the daemons accept the same
// -pred/-p/-table/... surface and must build bit-identical predictors from
// it, so the mapping lives once, here. And the daemon lifecycle (Daemon)
// that ibpserved and ibprouter run.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
)

// PredictorFlags describes one predictor configuration as the tools expose
// it. Zero value is not useful — call Register to install the defaults.
type PredictorFlags struct {
	Pred      string
	Path      int
	HistShare int
	TabShare  int
	Precision int
	Scheme    string
	KeyOp     string
	Table     string
	Entries   int
	Update    string
	Hybrid    string
}

// Register declares the predictor flags on fs with their defaults.
func (f *PredictorFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Pred, "pred", "2lev", "predictor family: 2lev, btb, btb-2bc, tcache, ppm, shared, ittage[:banks,entries,minhist]")
	fs.IntVar(&f.Path, "p", 3, "path length")
	fs.IntVar(&f.HistShare, "s", 32, "history sharing exponent (2=per-branch, 32=global)")
	fs.IntVar(&f.TabShare, "hshare", 2, "history table sharing exponent (full-precision mode)")
	fs.IntVar(&f.Precision, "b", core.AutoPrecision, "bits per history target (-1 auto, 0 full precision)")
	fs.StringVar(&f.Scheme, "scheme", "reverse", "pattern layout: concat, straight, reverse, pingpong")
	fs.StringVar(&f.KeyOp, "keyop", "xor", "address folding: xor or concat")
	fs.StringVar(&f.Table, "table", "unbounded", "table: exact, unbounded, tagless, assoc1/2/4, fullassoc")
	fs.IntVar(&f.Entries, "entries", 0, "table entries for bounded tables")
	fs.StringVar(&f.Update, "update", "2bc", "target update rule: 2bc or always")
	fs.StringVar(&f.Hybrid, "hybrid", "", "dual-path hybrid \"p1,p2\" (overrides -p)")
}

// FlagError is the typed rejection produced by flag validation: which flag,
// what value, and why. Tools match it with errors.As to distinguish operator
// mistakes (usage errors) from internal failures.
type FlagError struct {
	// Flag is the flag name without the leading dash.
	Flag string
	// Value is the rejected value, rendered.
	Value string
	// Reason says what range or vocabulary the value violated.
	Reason string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("invalid -%s value %q: %s", e.Flag, e.Value, e.Reason)
}

// MaxPathLength is the longest path-history length any predictor family
// accepts (the two-level predictor's hard limit).
const MaxPathLength = 64

// predNames is the -pred vocabulary Build accepts; the ittage family is
// matched separately because it carries an inline spec (see ParseITTAGE).
var predNames = map[string]bool{
	"2lev": true, "btb": true, "btb-2bc": true,
	"tcache": true, "ppm": true, "shared": true,
}

// ITTAGE spec defaults: bare "ittage" means 8 tagged banks of 512 entries
// over a 1024-entry base, with history lengths doubling from 2.
const (
	ittageDefBanks   = 8
	ittageDefEntries = 512
	ittageDefMinHist = 2
)

// ParseITTAGE interprets the -pred ittage spec grammar: bare "ittage" for
// the defaults, or "ittage:banks,entries,minhist" with banks in [1,16],
// entries a power of two, and minhist positive. ok reports whether pred
// names the ittage family at all; reason is non-empty when it does but the
// spec is malformed — mirroring core.NewITTAGE's construction checks so a
// bad spec fails flag validation, not predictor construction.
func ParseITTAGE(pred string) (banks, entries, minHist int, ok bool, reason string) {
	if pred == "ittage" {
		return ittageDefBanks, ittageDefEntries, ittageDefMinHist, true, ""
	}
	spec, found := strings.CutPrefix(pred, "ittage:")
	if !found {
		return 0, 0, 0, false, ""
	}
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return 0, 0, 0, true, `want "ittage" or "ittage:banks,entries,minhist"`
	}
	var vals [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, 0, 0, true, fmt.Sprintf("%q is not an integer", p)
		}
		vals[i] = v
	}
	banks, entries, minHist = vals[0], vals[1], vals[2]
	switch {
	case banks < 1 || banks > 16:
		return 0, 0, 0, true, "banks must be in [1,16]"
	case entries <= 0 || entries&(entries-1) != 0:
		return 0, 0, 0, true, "entries must be a positive power of two"
	case minHist < 1:
		return 0, 0, 0, true, "minhist must be positive"
	}
	return banks, entries, minHist, true, ""
}

// validTableKind reports whether kind names a table organization any tool
// accepts: the CLI's named kinds plus the assoc<2^k> family.
func validTableKind(kind string) bool {
	switch kind {
	case "", "exact", "unbounded", "tagless", "fullassoc":
		return true
	}
	// assoc<n> is valid when a table of one n-way set is; the size itself
	// is checked with the predictor.
	ways := strings.TrimPrefix(kind, "assoc")
	n, err := strconv.Atoi(ways)
	return err == nil && n > 0 && table.Check(kind, n) == nil
}

// tcacheHistBits is the gshare history width of -pred tcache.
const tcacheHistBits = 9

// tcache returns the table kind and size of -pred tcache: a 512-entry
// tagless table unless the flags say otherwise.
func (f PredictorFlags) tcache() (string, int) {
	entries := f.Entries
	if entries == 0 {
		entries = 512
	}
	return orDefault(f.Table, "tagless"), entries
}

// bounded reports whether the flags' table is a bounded one: the BTB
// families build their table only then.
func (f PredictorFlags) bounded() bool {
	return f.Table != "" && f.Table != "unbounded" && f.Table != "exact"
}

// CheckBuild rejects, with a *FlagError, every flag set Build would refuse,
// before any predictor construction happens, so every tool reports the same
// typed usage error for the same mistake: unknown -pred, -p outside [0,
// MaxPathLength], unknown -table, negative -entries, malformed -hybrid, a
// table size the predictor's table organization cannot take (table.Check),
// which its constructor would panic on, a family without the operands it
// needs, and a two-level configuration core.Config.Validate rejects, such as
// a path too long for the auto precision rule. ParseITTAGE checks the ittage
// family as core.NewITTAGE does. A daemon takes a spec that passes as one it
// can build.
func (f PredictorFlags) CheckBuild() error {
	if _, _, _, isIttage, reason := ParseITTAGE(f.Pred); isIttage {
		if reason != "" {
			return &FlagError{Flag: "pred", Value: f.Pred, Reason: reason}
		}
	} else if !predNames[f.Pred] {
		return &FlagError{Flag: "pred", Value: f.Pred, Reason: "want 2lev, btb, btb-2bc, tcache, ppm, shared, or ittage[:banks,entries,minhist]"}
	}
	if f.Path < 0 || f.Path > MaxPathLength {
		return &FlagError{Flag: "p", Value: fmt.Sprint(f.Path), Reason: fmt.Sprintf("path length must be in [0, %d]", MaxPathLength)}
	}
	if !validTableKind(f.Table) {
		return &FlagError{Flag: "table", Value: f.Table, Reason: "want exact, unbounded, tagless, assoc<2^k>, or fullassoc"}
	}
	if f.Entries < 0 {
		return &FlagError{Flag: "entries", Value: fmt.Sprint(f.Entries), Reason: "entry count cannot be negative"}
	}
	p1, p2, pairErr := ParsePair(f.Hybrid)
	if f.Hybrid != "" {
		if pairErr != nil {
			return &FlagError{Flag: "hybrid", Value: f.Hybrid, Reason: `want "p1,p2"`}
		}
		if p1 < 0 || p1 > MaxPathLength || p2 < 0 || p2 > MaxPathLength {
			return &FlagError{Flag: "hybrid", Value: f.Hybrid, Reason: fmt.Sprintf("component path lengths must be in [0, %d]", MaxPathLength)}
		}
	}
	switch f.Pred {
	case "btb", "btb-2bc":
		if f.bounded() {
			return f.checkTable(f.Table, f.Entries)
		}
	case "tcache":
		return f.checkTable(f.tcache())
	case "ppm", "shared":
		if pairErr != nil {
			return &FlagError{Flag: "hybrid", Value: f.Hybrid, Reason: fmt.Sprintf(`-pred %s needs -hybrid "p1,p2"`, f.Pred)}
		}
		if f.Pred == "ppm" {
			return f.checkConfigs(core.DualPathConfig(p1, f.Table, f.Entries), core.DualPathConfig(p2, f.Table, f.Entries))
		}
		if p1 == p2 {
			return &FlagError{Flag: "hybrid", Value: f.Hybrid, Reason: "shared hybrid components must differ in path length"}
		}
		return f.checkTable(f.Table, f.Entries)
	case "2lev":
		if f.Hybrid != "" {
			return f.checkConfigs(core.DualPathConfig(p1, f.Table, f.Entries), core.DualPathConfig(p2, f.Table, f.Entries))
		}
		cfg, err := f.TwoLevelConfig()
		if err != nil {
			return err
		}
		return f.checkConfigs(cfg)
	}
	return nil
}

// checkTable reports a table that table.New would refuse.
func (f PredictorFlags) checkTable(kind string, entries int) error {
	err := table.Check(kind, entries)
	switch {
	case err == nil:
		return nil
	case kind == "" || kind == "exact":
		return &FlagError{Flag: "table", Value: kind, Reason: fmt.Sprintf("-pred %s needs a table organization: %v", f.Pred, err)}
	}
	return &FlagError{Flag: "entries", Value: fmt.Sprint(entries), Reason: err.Error()}
}

// checkConfigs reports a two-level configuration that NewTwoLevel would
// refuse.
func (f PredictorFlags) checkConfigs(cfgs ...core.Config) error {
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return &FlagError{Flag: "pred", Value: f.Pred, Reason: err.Error()}
		}
	}
	return nil
}

// Name returns the name of the predictor Build returns, without building
// it. The flags must pass CheckBuild.
func (f PredictorFlags) Name() string {
	if banks, entries, minHist, isIttage, _ := ParseITTAGE(f.Pred); isIttage {
		return core.ITTAGEName(banks, entries, minHist)
	}
	p1, p2, _ := ParsePair(f.Hybrid)
	switch f.Pred {
	case "btb", "btb-2bc":
		rule := core.UpdateAlways
		if f.Pred == "btb-2bc" {
			rule = core.UpdateTwoMiss
		}
		if !f.bounded() {
			return core.BTBName(rule, "unbounded", -1)
		}
		return core.BTBName(rule, f.Table, f.Entries)
	case "tcache":
		kind, entries := f.tcache()
		return core.TargetCacheName(tcacheHistBits, kind, entries)
	case "ppm":
		return core.CascadeName([]int{p1, p2}, f.Table, f.Entries)
	case "shared":
		return core.SharedHybridName(p1, p2, f.Table, f.Entries)
	}
	if f.Hybrid != "" {
		return core.HybridName(core.DualPathConfig(p1, f.Table, f.Entries).Name(), core.DualPathConfig(p2, f.Table, f.Entries).Name())
	}
	cfg, _ := f.TwoLevelConfig()
	return cfg.Name()
}

// ValidateSeed rejects non-positive workload seeds with a *FlagError: seed 0
// is the generators' "unset" sentinel and negative seeds cannot survive the
// uint64 conversion the generators perform.
func ValidateSeed(seed int64) error {
	if seed <= 0 {
		return &FlagError{Flag: "seed", Value: fmt.Sprint(seed), Reason: "seed must be positive"}
	}
	return nil
}

// Build constructs the predictor the flags describe.
func (f PredictorFlags) Build() (core.Predictor, error) {
	if banks, entries, minHist, isIttage, reason := ParseITTAGE(f.Pred); isIttage {
		if reason != "" {
			return nil, &FlagError{Flag: "pred", Value: f.Pred, Reason: reason}
		}
		return core.NewITTAGE(banks, entries, minHist)
	}
	switch f.Pred {
	case "btb":
		tb, err := f.boundedTable()
		if err != nil {
			return nil, err
		}
		return core.NewBTB(tb, core.UpdateAlways), nil
	case "btb-2bc":
		tb, err := f.boundedTable()
		if err != nil {
			return nil, err
		}
		return core.NewBTB(tb, core.UpdateTwoMiss), nil
	case "tcache":
		kind, entries := f.tcache()
		return core.NewTargetCache(tcacheHistBits, kind, entries)
	case "ppm":
		p1, p2, err := ParsePair(f.Hybrid)
		if err != nil {
			return nil, fmt.Errorf("ppm needs -hybrid p1,p2: %w", err)
		}
		return core.NewCascade([]int{p1, p2}, f.Table, f.Entries)
	case "shared":
		p1, p2, err := ParsePair(f.Hybrid)
		if err != nil {
			return nil, fmt.Errorf("shared needs -hybrid p1,p2: %w", err)
		}
		return core.NewSharedHybrid(p1, p2, f.Table, f.Entries)
	case "2lev":
		if f.Hybrid != "" {
			p1, p2, err := ParsePair(f.Hybrid)
			if err != nil {
				return nil, err
			}
			return core.NewDualPath(p1, p2, f.Table, f.Entries)
		}
		cfg, err := f.TwoLevelConfig()
		if err != nil {
			return nil, err
		}
		return core.NewTwoLevel(cfg)
	}
	return nil, fmt.Errorf("unknown predictor %q", f.Pred)
}

// Unbounded returns the flags with the table widened to unbounded — the
// shadow-twin configuration for capacity-miss attribution.
func (f PredictorFlags) Unbounded() PredictorFlags {
	f.Table = "unbounded"
	f.Entries = 0
	return f
}

// TwoLevelConfig maps the flags onto a core.Config for the 2lev family.
func (f PredictorFlags) TwoLevelConfig() (core.Config, error) {
	scheme, err := bits.ParseScheme(f.Scheme)
	if err != nil {
		return core.Config{}, &FlagError{Flag: "scheme", Value: f.Scheme, Reason: err.Error()}
	}
	var keyop history.KeyOp
	switch f.KeyOp {
	case "xor":
		keyop = history.OpXor
	case "concat":
		keyop = history.OpConcat
	default:
		return core.Config{}, &FlagError{Flag: "keyop", Value: f.KeyOp, Reason: "want xor or concat"}
	}
	var update core.UpdateRule
	switch f.Update {
	case "2bc":
		update = core.UpdateTwoMiss
	case "always":
		update = core.UpdateAlways
	default:
		return core.Config{}, &FlagError{Flag: "update", Value: f.Update, Reason: "want 2bc or always"}
	}
	return core.Config{
		PathLength: f.Path,
		HistShare:  f.HistShare,
		TableShare: f.TabShare,
		Precision:  f.Precision,
		Scheme:     scheme,
		KeyOp:      keyop,
		TableKind:  f.Table,
		Entries:    f.Entries,
		Update:     update,
	}, nil
}

// boundedTable builds the BTB's table, or nil for an unbounded one.
func (f PredictorFlags) boundedTable() (table.Bounded, error) {
	if !f.bounded() {
		return nil, nil
	}
	return table.New(f.Table, f.Entries)
}

// ParsePair parses the "p1,p2" hybrid path-length argument.
func ParsePair(s string) (int, int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want \"p1,p2\", got %q", s)
	}
	var a, b int
	if _, err := fmt.Sscanf(parts[0], "%d", &a); err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(parts[1], "%d", &b); err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func orDefault(s, def string) string {
	if s == "" || s == "unbounded" {
		return def
	}
	return s
}
