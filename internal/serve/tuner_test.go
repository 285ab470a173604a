package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
	"github.com/oocsb/ibp/internal/workload"
)

// aggressivePolicy trips on the first post-warmup window of any real
// workload: every window votes to escalate and one vote is enough.
const aggressivePolicy = "warmup=0;interval=256;miss=0.01;low=0.001;hyst=1;swaps=1;coldmax=1;target=ittage:4,256,2"

func tunedServer(t *testing.T, spec string) (*Server, string) {
	t.Helper()
	policy, err := tuner.ParsePolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return startServer(t, Config{
		Shards: 2,
		Limits: Limits{Window: 4},
		Tuner:  tuner.New(tuner.Options{Policy: policy}),
	})
}

// TestTunerSwapBitReproducible is the tuner's correctness contract: a
// session whose predictor was hot-swapped mid-stream must finish with a
// Summary bit-identical to a session that ran the swap target from its
// first record — the swap replays the whole retained history — and two
// identical runs must land identical summaries (decisions are functions of
// the record stream, never the clock). It runs several benchmarks and frame
// splits, so swaps land at different boundaries. The tuner CI job greps for
// this test, so it must never t.Skip.
func TestTunerSwapBitReproducible(t *testing.T) {
	const (
		n      = 6000
		warmup = 64
	)
	_, addr := tunedServer(t, aggressivePolicy)

	// Every swap lands on the escalation target; the reference is that
	// target run from the first record.
	target, err := tuner.PredictorFor("ittage:4,256,2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range workload.Suite()[:3] {
		tr := cfg.MustGenerate(n)
		pred, err := target.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Run(pred, tr, sim.Options{Warmup: warmup})
		for _, frame := range []int{317, 1024} {
			name := fmt.Sprintf("%s/frame=%d", cfg.Name, frame)
			run := func() Summary {
				t.Helper()
				c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup}, DialOptions{Timeout: 20 * time.Second, Retries: 2})
				if err != nil {
					t.Fatalf("%s: dial: %v", name, err)
				}
				sum, err := c.Stream(tr, frame, nil)
				c.Close()
				if err != nil {
					t.Fatalf("%s: stream: %v", name, err)
				}
				return sum
			}

			sum := run()
			if !strings.HasPrefix(sum.Predictor, "ittage") {
				t.Fatalf("%s: session finished on %q — the tuner never escalated", name, sum.Predictor)
			}
			if sum.Executed != want.Executed || sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
				t.Errorf("%s: swapped session: executed/misses/noPred = %d/%d/%d, target-from-start sim = %d/%d/%d",
					name, sum.Executed, sum.Misses, sum.NoPrediction, want.Executed, want.Misses, want.NoPrediction)
			}
			if sum.MissRate != want.MissRate() {
				t.Errorf("%s: miss rate %v, want %v (must be bit-identical)", name, sum.MissRate, want.MissRate())
			}

			// Same trace, same policy: the rerun must land the identical summary.
			again := run()
			if again.Executed != sum.Executed || again.Misses != sum.Misses ||
				again.NoPrediction != sum.NoPrediction || again.MissRate != sum.MissRate ||
				again.Predictor != sum.Predictor {
				t.Errorf("%s: rerun diverged: %+v vs %+v", name, again, sum)
			}
		}
	}
}

// TestTunerHistoryCapStopsTuning is the history cap's degrade-honestly path:
// a session whose payload outgrows its histmax budget stops tuning for good
// at the overflowing frame — counted once in tuner_history_overflow_total,
// no swap afterwards — and still finishes with a Summary bit-identical to
// the predictor it ended on, run from record one. The policy's thresholds sit
// between the two predictors' window miss rates, so it keeps flipping
// between them: a swap after the history was released would replay a broken
// prefix and lose that identity. A second session on the same server, with
// the default budget, keeps swapping to the end.
func TestTunerHistoryCapStopsTuning(t *testing.T) {
	const (
		n      = 6000
		warmup = 64
		frame  = 317
		flip   = "warmup=0;interval=256;miss=0.03;low=0.025;hyst=1;swaps=1000;coldmax=1;target=ittage:4,256,2"
	)
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(n)
	histmax := len(trace.AppendRecords(nil, tr)) / 2

	reg := telemetry.New()
	policy, err := tuner.ParsePolicy(flip)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{
		Shards: 2,
		Limits: Limits{Window: 4},
		Tuner:  tuner.New(tuner.Options{Policy: policy, Telemetry: reg}),
	})
	overflows, swaps := reg.Counter("tuner_history_overflow_total"), reg.Counter("tuner_swaps_total")
	target, err := tuner.PredictorFor("ittage:4,256,2")
	if err != nil {
		t.Fatal(err)
	}

	// run streams the trace under the given per-session policy, checks the
	// Summary against sim.Run of the predictor the session ended on, and
	// returns the swaps the session made.
	run := func(name, spec string) uint64 {
		t.Helper()
		before := swaps.Load()
		c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup, TunerPolicy: spec},
			DialOptions{Timeout: 20 * time.Second, Retries: 2})
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		sum, err := c.Stream(tr, frame, nil)
		c.Close()
		if err != nil {
			t.Fatalf("%s: stream: %v", name, err)
		}
		flags := defaultFlags()
		if strings.HasPrefix(sum.Predictor, "ittage") {
			flags = target
		}
		pred, err := flags.Build()
		if err != nil {
			t.Fatal(err)
		}
		if pred.Name() != sum.Predictor {
			t.Fatalf("%s: session ended on %q, reference builds %q", name, sum.Predictor, pred.Name())
		}
		want := sim.Run(pred, tr, sim.Options{Warmup: warmup})
		if sum.Executed != want.Executed || sum.Misses != want.Misses ||
			sum.NoPrediction != want.NoPrediction || sum.MissRate != want.MissRate() {
			t.Errorf("%s: executed/misses/noPred = %d/%d/%d, %s from record one = %d/%d/%d",
				name, sum.Executed, sum.Misses, sum.NoPrediction, sum.Predictor,
				want.Executed, want.Misses, want.NoPrediction)
		}
		return swaps.Load() - before
	}

	capped := run("capped", fmt.Sprintf("%s;histmax=%d", flip, histmax))
	if got := overflows.Load(); got != 1 {
		t.Fatalf("tuner_history_overflow_total = %d after the capped session, want 1", got)
	}
	full := run("uncapped", flip)
	if got := overflows.Load(); got != 1 {
		t.Fatalf("tuner_history_overflow_total = %d after the uncapped session, want still 1", got)
	}
	// The capped session swapped while its history still held the prefix,
	// then never again; the uncapped one kept flipping to the end.
	if capped == 0 || capped >= full {
		t.Fatalf("swaps: capped session %d, uncapped %d — want 0 < capped < uncapped", capped, full)
	}
}

// TestTunerUntunedSessionsUnchanged: with the tuner enabled but thresholds
// unreachable, summaries stay bit-identical to the untuned server.
func TestTunerUntunedSessionsUnchanged(t *testing.T) {
	const (
		n      = 3000
		warmup = 64
		frame  = 257
	)
	_, addr := tunedServer(t, "warmup=0;interval=1000000;miss=0.99;low=0.001")
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(n)

	c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup}, DialOptions{Timeout: 20 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Stream(tr, frame, nil)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(pred, tr, sim.Options{Warmup: warmup})
	if sum.Executed != want.Executed || sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
		t.Errorf("idle-tuner session: %d/%d/%d, sim %d/%d/%d",
			sum.Executed, sum.Misses, sum.NoPrediction, want.Executed, want.Misses, want.NoPrediction)
	}
}

// TestTunerHelloPolicyOverride: a session-supplied Hello.TunerPolicy
// replaces the server default, and a malformed one is rejected as BadHello
// even before any tuning happens.
func TestTunerHelloPolicyOverride(t *testing.T) {
	_, addr := tunedServer(t, "warmup=0;interval=1000000;miss=0.99;low=0.001")
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(4000)

	c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: 64, TunerPolicy: aggressivePolicy},
		DialOptions{Timeout: 20 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Stream(tr, 317, nil)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sum.Predictor, "ittage") {
		t.Errorf("per-session policy ignored: finished on %q", sum.Predictor)
	}

	if _, err := Dial(addr, Hello{Benchmark: cfg.Name, TunerPolicy: "speed=9"},
		DialOptions{Timeout: 5 * time.Second}); err == nil {
		t.Error("malformed Hello.TunerPolicy accepted")
	}
}

// TestTunerPolicyValidatedWhenDisabled: even without -tuner, a malformed
// Hello.TunerPolicy is a BadHello — clients learn about the typo on the
// tuned fleet and the untuned one alike.
func TestTunerPolicyValidatedWhenDisabled(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	if _, err := Dial(addr, Hello{Benchmark: "x", TunerPolicy: "speed=9"},
		DialOptions{Timeout: 5 * time.Second}); err == nil {
		t.Error("tuner-disabled server accepted a malformed TunerPolicy")
	}
	c, err := Dial(addr, Hello{Benchmark: "x", TunerPolicy: aggressivePolicy},
		DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Errorf("tuner-disabled server rejected a well-formed TunerPolicy: %v", err)
	} else {
		c.Close()
	}
}
