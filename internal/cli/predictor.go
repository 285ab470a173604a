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
	var ways int
	if _, err := fmt.Sscanf(kind, "assoc%d", &ways); err == nil && ways > 0 && ways&(ways-1) == 0 {
		return true
	}
	return false
}

// Validate rejects out-of-range or unknown flag values with a *FlagError
// before any predictor construction happens, so every tool reports the same
// typed usage error for the same mistake. Build still performs its own
// construction-time checks; Validate catches the errors worth a clean
// message (unknown -pred, -p outside [0, MaxPathLength], unknown -table,
// negative -entries, malformed -hybrid).
func (f PredictorFlags) Validate() error {
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
	if f.Hybrid != "" {
		p1, p2, err := ParsePair(f.Hybrid)
		if err != nil {
			return &FlagError{Flag: "hybrid", Value: f.Hybrid, Reason: `want "p1,p2"`}
		}
		if p1 < 0 || p1 > MaxPathLength || p2 < 0 || p2 > MaxPathLength {
			return &FlagError{Flag: "hybrid", Value: f.Hybrid, Reason: fmt.Sprintf("component path lengths must be in [0, %d]", MaxPathLength)}
		}
	}
	return nil
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
		entries := f.Entries
		if entries == 0 {
			entries = 512
		}
		return core.NewTargetCache(9, orDefault(f.Table, "tagless"), entries)
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
		return core.Config{}, err
	}
	var keyop history.KeyOp
	switch f.KeyOp {
	case "xor":
		keyop = history.OpXor
	case "concat":
		keyop = history.OpConcat
	default:
		return core.Config{}, fmt.Errorf("unknown key op %q", f.KeyOp)
	}
	var update core.UpdateRule
	switch f.Update {
	case "2bc":
		update = core.UpdateTwoMiss
	case "always":
		update = core.UpdateAlways
	default:
		return core.Config{}, fmt.Errorf("unknown update rule %q", f.Update)
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
	if f.Table == "" || f.Table == "unbounded" || f.Table == "exact" {
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
