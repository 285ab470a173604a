package tuner

import (
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/telemetry"
)

func TestParsePolicyDefaults(t *testing.T) {
	for _, spec := range []string{"", "   "} {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		want := DefaultPolicy()
		if p.String() != want.String() {
			t.Fatalf("empty spec = %s, want defaults %s", p, want)
		}
	}
	def := DefaultPolicy()
	if def.TargetSpec != "ittage:8,512,2" {
		t.Fatalf("default target = %q", def.TargetSpec)
	}
	if _, err := def.Target.Build(); err != nil {
		t.Fatalf("default target does not build: %v", err)
	}
}

func TestParsePolicyOverrides(t *testing.T) {
	p, err := ParsePolicy("warmup=0; interval=64 ;miss=0.2;low=0.01;hyst=1;swaps=5;coldmax=0.9;histmax=1024;target=btb-2bc")
	if err != nil {
		t.Fatal(err)
	}
	if p.Warmup != 0 || p.Interval != 64 || p.EscalateMiss != 0.2 || p.DeescalateMiss != 0.01 ||
		p.Hysteresis != 1 || p.MaxSwaps != 5 || p.MaxColdShare != 0.9 || p.MaxHistoryBytes != 1024 {
		t.Fatalf("parsed policy %+v", p)
	}
	if p.TargetSpec != "btb-2bc" || p.Target.Pred != "btb-2bc" {
		t.Fatalf("target not applied: %+v", p.Target)
	}
}

func TestParsePolicyRejects(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"interval", "not key=value"},
		{"speed=9", "unknown policy key"},
		{"interval=0", "at least 1"},
		{"interval=x", "not an integer"},
		{"miss=1.5", "fraction"},
		{"miss=-0.1", "fraction"},
		{"miss=0.05;low=0.05", "must be below"},
		{"low=0.5", "must be below"}, // default miss=0.10
		{"target=oracle", "pred"},
		{"target=ittage:8,500,2", "power of two"},
	}
	for _, tc := range cases {
		_, err := ParsePolicy(tc.spec)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParsePolicy(%q) = %v, want error mentioning %q", tc.spec, err, tc.wantSub)
		}
	}
}

func TestPolicyStringRoundTrips(t *testing.T) {
	p, err := ParsePolicy("interval=128;miss=0.25;target=ittage:4,256,2")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePolicy(p.String())
	if err != nil {
		t.Fatalf("String() output does not re-parse: %v", err)
	}
	if back.String() != p.String() {
		t.Fatalf("round trip %s != %s", back, p)
	}
}

// testPolicy is a small deterministic policy for state-machine tests:
// no warmup, 8-branch windows, escalate ≥50% miss, fall back ≤10%.
func testPolicy(t *testing.T) Policy {
	t.Helper()
	p, err := ParsePolicy("warmup=0;interval=8;miss=0.5;low=0.1;hyst=2;swaps=4;coldmax=0.5")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// feedWindow pushes one full decision window with the given number of misses
// (classified via tableHit so the class is alias — never cold) and returns
// FrameEnd's decision.
func feedWindow(st *SessionTuner, interval, misses int) *Decision {
	for i := 0; i < misses; i++ {
		st.ObserveMiss(true, false, false, false)
	}
	return st.FrameEnd(interval, misses)
}

func newTestSession(t *testing.T, p Policy) *SessionTuner {
	t.Helper()
	tun := New(Options{Policy: p})
	base, err := PredictorFor("btb-2bc")
	if err != nil {
		t.Fatal(err)
	}
	st := tun.Session(p, base, nil)
	if st == nil {
		t.Fatal("Session returned nil without a capacity gate")
	}
	return st
}

func TestTunerEscalatesWithHysteresis(t *testing.T) {
	p := testPolicy(t)
	st := newTestSession(t, p)

	// First bad window: one vote, no decision yet (hyst=2).
	if d := feedWindow(st, p.Interval, p.Interval); d != nil {
		t.Fatalf("escalated after one window despite hyst=2: %+v", d)
	}
	// A good window in between resets the streak.
	if d := feedWindow(st, p.Interval, 0); d != nil {
		t.Fatalf("decision on a clean window: %+v", d)
	}
	if d := feedWindow(st, p.Interval, p.Interval); d != nil {
		t.Fatalf("streak not reset by the clean window: %+v", d)
	}
	// Second consecutive bad window: escalate.
	d := feedWindow(st, p.Interval, p.Interval)
	if d == nil || !d.Escalate {
		t.Fatalf("no escalation after %d consecutive bad windows: %+v", p.Hysteresis, d)
	}
	if d.Target.Pred != p.TargetSpec {
		t.Fatalf("escalation target %q, want %q", d.Target.Pred, p.TargetSpec)
	}
	if d.Reason != "miss-rate" {
		t.Fatalf("reason %q", d.Reason)
	}
	if !st.Escalated() || st.Swaps() != 1 {
		t.Fatalf("post-swap state: escalated=%v swaps=%d", st.Escalated(), st.Swaps())
	}
}

func TestTunerDeescalates(t *testing.T) {
	p := testPolicy(t)
	st := newTestSession(t, p)
	feedWindow(st, p.Interval, p.Interval)
	if d := feedWindow(st, p.Interval, p.Interval); d == nil {
		t.Fatal("setup escalation failed")
	}
	// Two consecutive quiet windows fall back to the base predictor.
	if d := feedWindow(st, p.Interval, 0); d != nil {
		t.Fatalf("fell back after one window despite hyst=2: %+v", d)
	}
	d := feedWindow(st, p.Interval, 0)
	if d == nil || d.Escalate {
		t.Fatalf("no de-escalation: %+v", d)
	}
	if d.Target.Pred != "btb-2bc" {
		t.Fatalf("fallback target %q, want the session base", d.Target.Pred)
	}
	if d.Reason != "recovered" {
		t.Fatalf("reason %q", d.Reason)
	}
	if st.Escalated() {
		t.Fatal("still marked escalated after falling back")
	}
}

// TestTunerColdGate: a miss stream dominated by cold (first-touch) patterns
// must not trigger escalation — a bigger predictor would miss those too.
func TestTunerColdGate(t *testing.T) {
	p := testPolicy(t)
	st := newTestSession(t, p)
	coldWindow := func() *Decision {
		for i := 0; i < p.Interval; i++ {
			// Table miss whose update allocated a fresh entry without
			// displacing anyone: classified cold.
			st.ObserveMiss(false, false, true, false)
		}
		return st.FrameEnd(p.Interval, p.Interval)
	}
	for i := 0; i < 6; i++ {
		if d := coldWindow(); d != nil {
			t.Fatalf("cold-dominated window %d escalated: %+v", i, d)
		}
	}
	if st.Swaps() != 0 {
		t.Fatalf("swaps = %d", st.Swaps())
	}
}

func TestTunerSwapBudgetStops(t *testing.T) {
	p := testPolicy(t) // swaps=4
	st := newTestSession(t, p)
	flip := func(misses int) *Decision {
		var d *Decision
		for i := 0; i < p.Hysteresis; i++ {
			d = feedWindow(st, p.Interval, misses)
		}
		return d
	}
	for want := 1; want <= p.MaxSwaps; want++ {
		misses := p.Interval // escalate
		if st.Escalated() {
			misses = 0 // de-escalate
		}
		if d := flip(misses); d == nil {
			t.Fatalf("swap %d did not happen", want)
		}
		if st.Swaps() != want {
			t.Fatalf("swaps = %d, want %d", st.Swaps(), want)
		}
	}
	if !st.Stopped() {
		t.Fatal("tuner still live after exhausting the swap budget")
	}
	if d := flip(p.Interval); d != nil {
		t.Fatalf("decision after budget exhausted: %+v", d)
	}
	if st.Retune() {
		t.Fatal("Retune succeeded on a stopped tuner")
	}
}

func TestTunerForcedRetune(t *testing.T) {
	p := testPolicy(t)
	st := newTestSession(t, p)
	if !st.Retune() {
		t.Fatal("Retune refused on a live tuner")
	}
	// One record, nowhere near a full window — the forced flag overrides
	// interval, thresholds, and hysteresis.
	d := st.FrameEnd(1, 0)
	if d == nil || !d.Escalate || d.Reason != "forced" {
		t.Fatalf("forced decision = %+v", d)
	}
	// The force flag is one-shot.
	if d := feedWindow(st, p.Interval, 0); d != nil {
		t.Fatalf("force flag not consumed: %+v", d)
	}
}

func TestTunerPolicyWarmupDelaysFirstWindow(t *testing.T) {
	p, err := ParsePolicy("warmup=16;interval=8;miss=0.5;low=0.1;hyst=1")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestSession(t, p)
	// Warmup is consumed at frame granularity: two 8-record frames burn the
	// 16-record warmup, and neither their misses nor their sketch may leak
	// into the decision window.
	for frame := 0; frame < 2; frame++ {
		for i := 0; i < 8; i++ {
			st.ObserveMiss(true, false, false, false)
		}
		if d := st.FrameEnd(8, 8); d != nil {
			t.Fatalf("decision during policy warmup at frame %d: %+v", frame, d)
		}
	}
	if st.executed != 0 || st.misses != 0 || st.classes != [numClasses]uint32{} {
		t.Fatalf("warmup frames leaked into the window: executed=%d misses=%d classes=%v",
			st.executed, st.misses, st.classes)
	}
	// The first post-warmup frame fills the 8-record window and decides.
	for i := 0; i < 8; i++ {
		st.ObserveMiss(true, false, false, false)
	}
	if d := st.FrameEnd(8, 8); d == nil {
		t.Fatal("no decision once the first post-warmup window filled")
	}
}

// TestTunerStoppedDropsSketch: a stopped tuner keeps flushing nothing into
// the decision window — frames observed after the budget is spent are
// discarded whole.
func TestTunerStoppedDropsSketch(t *testing.T) {
	p := testPolicy(t)
	st := newTestSession(t, p)
	st.stopped.Store(true)
	for i := 0; i < p.Interval; i++ {
		st.ObserveMiss(true, false, false, false)
	}
	if d := st.FrameEnd(p.Interval, p.Interval); d != nil {
		t.Fatalf("stopped tuner decided: %+v", d)
	}
	if st.executed != 0 || st.misses != 0 {
		t.Fatalf("stopped tuner accumulated a window: executed=%d misses=%d", st.executed, st.misses)
	}
}

// TestTunerSessionsActiveBalances checks that tuner_sessions_active counts
// each tuned session once and that a repeated Close takes it off only once.
func TestTunerSessionsActiveBalances(t *testing.T) {
	p := testPolicy(t)
	reg := telemetry.New()
	tun := New(Options{Policy: p, Telemetry: reg})
	base, _ := PredictorFor("btb-2bc")
	a := tun.Session(p, base, nil)
	b := tun.Session(p, base, nil)
	if a == nil || b == nil {
		t.Fatal("enabled tuner refused a session")
	}
	active := reg.Gauge("tuner_sessions_active")
	if got := active.Load(); got != 2 {
		t.Fatalf("tuner_sessions_active = %v with two sessions, want 2", got)
	}
	a.Close()
	a.Close() // idempotent
	if got := active.Load(); got != 1 {
		t.Fatalf("tuner_sessions_active = %v after closing one session twice, want 1", got)
	}
	b.Close()
	if got := active.Load(); got != 0 {
		t.Fatalf("tuner_sessions_active = %v after closing both, want 0", got)
	}
	if got := reg.Counter("tuner_sessions_total").Load(); got != 2 {
		t.Fatalf("tuner_sessions_total = %v, want 2", got)
	}
}

func TestTunerNilSafe(t *testing.T) {
	var tun *Tuner
	if p := tun.DefaultPolicy(); p != (Policy{}) {
		t.Fatalf("nil tuner default policy = %+v", p)
	}
	st := tun.Session(Policy{}, DefaultPolicy().Target, nil)
	if st != nil {
		t.Fatal("nil tuner handed out a session")
	}
	// Every method on the nil session tuner must be a safe no-op.
	st.ObserveMiss(true, false, true, false)
	if d := st.FrameEnd(8, 1); d != nil {
		t.Fatalf("nil session tuner decided: %+v", d)
	}
	if st.Retune() {
		t.Fatal("nil session tuner accepted a retune")
	}
	if !st.Stopped() {
		t.Fatal("nil session tuner claims to be running")
	}
	st.SwapApplied(nil, "", 0)
	st.SwapFailed()
	st.HistoryOverflow()
	st.Close()
	_ = st.Policy()
	_ = st.Escalated()
	_ = st.Swaps()
}

// TestTunerDisabledZeroAllocs is the disabled-path cost contract: with no
// tuner configured (nil handles), the per-record and per-frame hooks must
// not allocate. The CI zero-alloc job greps for this test, so it must never
// t.Skip.
func TestTunerDisabledZeroAllocs(t *testing.T) {
	var st *SessionTuner
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			st.ObserveMiss(true, false, i&3 == 0, false)
		}
		if st.FrameEnd(64, 8) != nil {
			t.Fatal("nil tuner decided")
		}
	})
	if avg != 0 {
		t.Fatalf("disabled tuner path allocates %.1f/op, want 0", avg)
	}
}

// TestTunerSamplingZeroAllocs is the enabled steady-state cost contract:
// observing records and closing frames that do not produce a decision must
// not allocate (the Decision itself is allocated only on rare swaps). The
// CI zero-alloc job greps for this test, so it must never t.Skip.
func TestTunerSamplingZeroAllocs(t *testing.T) {
	p, err := ParsePolicy("warmup=0;interval=1000000;miss=0.5;low=0.1")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestSession(t, p)
	avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			st.ObserveMiss(i&3 != 0, i&15 == 0, i&7 == 0, i&5 == 0)
		}
		if st.FrameEnd(64, 8) != nil {
			t.Fatal("unexpected decision")
		}
	})
	if avg != 0 {
		t.Fatalf("enabled tuner sampling allocates %.1f/op, want 0", avg)
	}
}
