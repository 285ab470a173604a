package serve

import (
	"fmt"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/workload"
)

// TestServeGoldenEquivalence streams every benchmark of the paper's suite
// through a live server and requires the server-side accounting — executed,
// misses, no-prediction, and therefore the miss rate — to be bit-identical to
// a local sim.Run with the same predictor configuration, across frame splits
// (one record per frame, odd, large, and the whole trace in one frame) and
// with and without warmup. This is the correctness contract of the serve
// subsystem: moving prediction behind a socket must not change a single
// count, wherever the frame boundaries fall.
func TestServeGoldenEquivalence(t *testing.T) {
	const n = 4000
	// The record cap admits a whole trace as one frame.
	_, addr := startServer(t, Config{Shards: 4, Window: 4, MaxFrameRecords: 1 << 20, MaxFramePayload: 8 << 20})

	for _, cfg := range workload.Suite() {
		tr := cfg.MustGenerate(n)
		for _, warmup := range []int{0, 64} {
			pred, err := defaultFlags().Build()
			if err != nil {
				t.Fatal(err)
			}
			want := sim.Run(pred, tr, sim.Options{Warmup: warmup})
			for _, frame := range []int{1, 317, 4096, len(tr) + 1} {
				if frame == 1 && cfg.Name != workload.Suite()[0].Name {
					// Single-record frames cost a round trip per record; one
					// benchmark covers that split.
					continue
				}
				name := fmt.Sprintf("%s/warmup=%d/frame=%d", cfg.Name, warmup, frame)
				c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup}, DialOptions{Timeout: 20 * time.Second, Retries: 2})
				if err != nil {
					t.Fatalf("%s: dial: %v", name, err)
				}
				sum, err := c.Stream(tr, frame, nil)
				c.Close()
				if err != nil {
					t.Fatalf("%s: stream: %v", name, err)
				}
				if sum.Executed != want.Executed {
					t.Errorf("%s: executed %d, sim %d", name, sum.Executed, want.Executed)
				}
				if sum.Misses != want.Misses {
					t.Errorf("%s: misses %d, sim %d", name, sum.Misses, want.Misses)
				}
				if sum.NoPrediction != want.NoPrediction {
					t.Errorf("%s: noPrediction %d, sim %d", name, sum.NoPrediction, want.NoPrediction)
				}
				if sum.MissRate != want.MissRate() {
					t.Errorf("%s: miss rate %v, sim %v (must be bit-identical)", name, sum.MissRate, want.MissRate())
				}
				if sum.Records != len(tr) {
					t.Errorf("%s: records %d, trace %d", name, sum.Records, len(tr))
				}
				if frame > len(tr) && sum.Frames != 1 {
					t.Errorf("%s: %d frames, want the whole trace in one", name, sum.Frames)
				}
			}
		}
	}
}
