package serve

import (
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/tuner"
	"github.com/oocsb/ibp/internal/workload"
)

// TestOversizeFramesBypassPool is the buffer pool's degrade-honestly path: a
// session whose MaxFramePayload admits frames larger than the pool's largest
// class (1 MiB) gets those payloads from the one-shot class -1 allocation,
// never from a pooled class. Every oversize frame is counted in
// serve_pool_misses, even on a pool warmed by an identical earlier session,
// and the Summary is still bit-identical to sim.Run. A tuned twin retains
// the oversize frames in its FrameLog history, swaps after replaying them,
// and ends bit-identical to its final predictor run from record one.
func TestOversizeFramesBypassPool(t *testing.T) {
	const (
		frame  = 1 << 18 // ~1.5 MiB of encoded idl records
		tuning = "warmup=0;interval=256;miss=0.01;low=0.001;hyst=2;swaps=1;coldmax=1;target=ittage:4,256,2"
	)
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(100000)
	oversize := 0
	for start := 0; start < len(tr); start += frame {
		end := min(start+frame, len(tr))
		if len(appendRecordsFrame(nil, 1, tr[start:end])) > 1<<20 {
			oversize++
		}
	}
	if oversize < 2 || len(tr)%frame == 0 {
		t.Fatalf("fixture: %d records in frames of %d give %d oversize frames; want >= 2 and a pooled tail frame",
			len(tr), frame, oversize)
	}

	reg := telemetry.Enable(nil)
	defer telemetry.Disable()
	poolMisses := reg.Counter("serve_pool_misses")
	// A window of one keeps one frame in flight, so a pool that recycled
	// oversize buffers would hand the previous frame's buffer to the next.
	limits := Config{Shards: 2, Limits: Limits{Window: 1, MaxFrameRecords: frame, MaxFramePayload: 4 << 20}}

	stream := func(addr string) Summary {
		t.Helper()
		c, err := Dial(addr, Hello{Benchmark: cfg.Name}, DialOptions{Timeout: 60 * time.Second, Retries: 2})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		sum, err := c.Stream(tr, frame, nil)
		c.Close()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		return sum
	}
	check := func(name string, sum Summary, flags cli.PredictorFlags) {
		t.Helper()
		pred, err := flags.Build()
		if err != nil {
			t.Fatal(err)
		}
		if pred.Name() != sum.Predictor {
			t.Fatalf("%s: session ended on %q, reference builds %q", name, sum.Predictor, pred.Name())
		}
		want := sim.Run(pred, tr, sim.Options{})
		if sum.Records != len(tr) || sum.Executed != want.Executed || sum.Misses != want.Misses ||
			sum.NoPrediction != want.NoPrediction || sum.MissRate != want.MissRate() {
			t.Errorf("%s: records/executed/misses/noPred = %d/%d/%d/%d, sim.Run = %d/%d/%d/%d",
				name, sum.Records, sum.Executed, sum.Misses, sum.NoPrediction,
				len(tr), want.Executed, want.Misses, want.NoPrediction)
		}
	}

	_, addr := startServer(t, limits)
	for _, name := range []string{"cold pool", "warm pool"} {
		before := poolMisses.Load()
		sum := stream(addr)
		if got := poolMisses.Load() - before; got < uint64(oversize) {
			t.Errorf("%s: serve_pool_misses rose by %d over %d oversize frames; each must be a one-shot allocation",
				name, got, oversize)
		}
		check(name, sum, defaultFlags())
	}

	// The tuned twin: two windows over the miss threshold escalate at the
	// second frame boundary, replaying both oversize frames from the history.
	policy, err := tuner.ParsePolicy(tuning)
	if err != nil {
		t.Fatal(err)
	}
	treg := telemetry.New()
	tuned := limits
	tuned.Tuner = tuner.New(tuner.Options{Policy: policy, Telemetry: treg})
	_, taddr := startServer(t, tuned)
	sum := stream(taddr)
	if !strings.HasPrefix(sum.Predictor, "ittage") {
		t.Fatalf("tuned twin finished on %q: the tuner never swapped", sum.Predictor)
	}
	if got := treg.Counter("tuner_history_overflow_total").Load(); got != 0 {
		t.Errorf("tuner_history_overflow_total = %d: the oversize frames did not stay in the history", got)
	}
	if got := treg.Counter("tuner_replayed_records_total").Load(); got != 2*frame {
		t.Errorf("swap replayed %d records, want the two retained oversize frames (%d)", got, 2*frame)
	}
	target, err := tuner.PredictorFor("ittage:4,256,2")
	if err != nil {
		t.Fatal(err)
	}
	check("tuned twin", sum, target)
}
