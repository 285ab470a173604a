package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/sim"
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
		Window: 4,
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
