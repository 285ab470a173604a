// Package tuner is the per-session adaptation plane: it closes the
// observe→decide→act loop over a live serve session. The observe side is a
// cheap sketch of the session's misses (a miss-class breakdown in the
// internal/analysis taxonomy — cold/conflict/alias/meta — fed from the
// core.Attributor hooks). The decide side is a policy state machine
// (warmup → observe → escalate/de-escalate with hysteresis and a swap
// budget). The act side is the serve layer's hot swap: rebuild the
// predictor from the escalation target and replay the session's retained
// history so the swap is bit-reproducible (see internal/serve).
//
// Determinism contract: every decision input is a deterministic function of
// the session's record stream — executed/miss counts over fixed-size
// record windows, never wall-clock windows — so a router replaying a
// session's journal onto a surviving backend drives that backend's tuner
// through the identical decisions at the identical frame boundaries. The
// wall-clock sliding window in sessiontrack is surfaced for operators; the
// policy never reads it.
//
// Like telemetry and flight, nil is disabled: a nil *Tuner hands out nil
// *SessionTuners whose methods are all zero-allocation no-ops.
package tuner

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/oocsb/ibp/internal/cli"
)

// Policy is one session's tuning policy: when to open the decision window,
// how to judge it, and what predictor to escalate to.
type Policy struct {
	// Warmup is the number of post-warmup executed branches consumed before
	// the first decision window opens (the predictor deserves time to train
	// before its miss rate means anything).
	Warmup int
	// Interval is the decision window length in executed branches. Windows
	// are record-counted, not timed: that keeps decisions deterministic
	// under failover replay.
	Interval int
	// EscalateMiss is the windowed miss-rate threshold (fraction, not
	// percent) at or above which a window votes to escalate.
	EscalateMiss float64
	// DeescalateMiss is the windowed miss-rate threshold at or below which
	// a window votes to fall back to the session's original predictor.
	DeescalateMiss float64
	// Hysteresis is how many consecutive windows must vote the same way
	// before the tuner acts.
	Hysteresis int
	// MaxSwaps bounds the number of hot swaps per session (escalations and
	// de-escalations both count), so a session oscillating around a
	// threshold cannot replay its history forever.
	MaxSwaps int
	// MaxColdShare is the Bullseye-style hard-to-predict gate: a window
	// only votes to escalate when at most this fraction of its classified
	// misses are cold. Cold-dominated miss streams are still filling the
	// tables — a bigger predictor would miss those too.
	MaxColdShare float64
	// MaxHistoryBytes caps the retained per-session replay history; a
	// session that outgrows it has tuning disabled (no further swaps)
	// rather than losing the bit-reproducibility guarantee.
	MaxHistoryBytes int
	// Target is the escalation predictor, parsed from the policy spec's
	// target= key (any -pred spec).
	Target cli.PredictorFlags
	// TargetSpec is the -pred spec Target was parsed from.
	TargetSpec string
}

// Default policy values; see ParsePolicy for the spec grammar.
const (
	defWarmup       = 1024
	defInterval     = 512
	defEscalate     = 0.10
	defDeescalate   = 0.02
	defHysteresis   = 2
	defMaxSwaps     = 2
	defMaxColdShare = 0.5
	defMaxHistory   = 64 << 20
	defTarget       = "ittage:8,512,2"
)

// DefaultPolicy returns the built-in policy: observe 1024 executed branches,
// then judge 512-branch windows; two consecutive windows at ≥10% misses
// (unless cold-dominated) escalate to ITTAGE; two windows at ≤2% fall back.
func DefaultPolicy() Policy {
	p := Policy{
		Warmup:          defWarmup,
		Interval:        defInterval,
		EscalateMiss:    defEscalate,
		DeescalateMiss:  defDeescalate,
		Hysteresis:      defHysteresis,
		MaxSwaps:        defMaxSwaps,
		MaxColdShare:    defMaxColdShare,
		MaxHistoryBytes: defMaxHistory,
		TargetSpec:      defTarget,
	}
	p.Target, _ = PredictorFor(defTarget)
	return p
}

// PredictorFor resolves a -pred spec into buildable PredictorFlags with the
// non-pred flags at their Register defaults, checked to build
// (cli.PredictorFlags.CheckBuild) so a bad target fails at policy-parse
// time, not at swap time.
func PredictorFor(pred string) (cli.PredictorFlags, error) {
	var f cli.PredictorFlags
	fs := flag.NewFlagSet("tuner", flag.ContinueOnError)
	f.Register(fs)
	f.Pred = pred
	return f, f.CheckBuild()
}

// ParsePolicy parses a -tunerpolicy spec: semicolon-separated key=value
// pairs overriding the defaults (semicolons, because the target spec itself
// contains commas). Keys:
//
//	warmup=N    executed branches before the first window (default 1024)
//	interval=N  window length in executed branches (default 512)
//	miss=F      escalate at windowed miss rate ≥ F (default 0.10)
//	low=F       de-escalate at windowed miss rate ≤ F (default 0.02)
//	hyst=N      consecutive windows before acting (default 2)
//	swaps=N     per-session swap budget (default 2)
//	coldmax=F   only escalate when cold misses ≤ F of the window (default 0.5)
//	histmax=N   replay-history byte cap per session (default 64 MiB)
//	target=SPEC escalation predictor, any -pred spec (default ittage:8,512,2)
//
// The empty spec is the default policy.
func ParsePolicy(spec string) (Policy, error) {
	p := DefaultPolicy()
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, pair := range strings.Split(spec, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return p, fmt.Errorf("tuner: policy term %q is not key=value", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "warmup":
			p.Warmup, err = parseIntMin(val, 0)
		case "interval":
			p.Interval, err = parseIntMin(val, 1)
		case "miss":
			p.EscalateMiss, err = parseFrac(val)
		case "low":
			p.DeescalateMiss, err = parseFrac(val)
		case "hyst":
			p.Hysteresis, err = parseIntMin(val, 1)
		case "swaps":
			p.MaxSwaps, err = parseIntMin(val, 1)
		case "coldmax":
			p.MaxColdShare, err = parseFrac(val)
		case "histmax":
			p.MaxHistoryBytes, err = parseIntMin(val, 1)
		case "target":
			p.Target, err = PredictorFor(val)
			p.TargetSpec = val
		default:
			return p, fmt.Errorf("tuner: unknown policy key %q (want warmup, interval, miss, low, hyst, swaps, coldmax, histmax, or target)", key)
		}
		if err != nil {
			return p, fmt.Errorf("tuner: policy %s=%q: %w", key, val, err)
		}
	}
	if p.DeescalateMiss >= p.EscalateMiss {
		return p, fmt.Errorf("tuner: policy low=%v must be below miss=%v", p.DeescalateMiss, p.EscalateMiss)
	}
	return p, nil
}

// String renders the policy in the ParsePolicy grammar (canonical order).
func (p Policy) String() string {
	return fmt.Sprintf("warmup=%d;interval=%d;miss=%g;low=%g;hyst=%d;swaps=%d;coldmax=%g;histmax=%d;target=%s",
		p.Warmup, p.Interval, p.EscalateMiss, p.DeescalateMiss,
		p.Hysteresis, p.MaxSwaps, p.MaxColdShare, p.MaxHistoryBytes, p.TargetSpec)
}

func parseIntMin(s string, min int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("not an integer")
	}
	if v < min {
		return 0, fmt.Errorf("must be at least %d", min)
	}
	return v, nil
}

func parseFrac(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("not a number")
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("must be a fraction in [0,1]")
	}
	return v, nil
}
