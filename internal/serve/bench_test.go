package serve

import (
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/workload"
)

// BenchmarkServeLoopback measures end-to-end serve throughput over a loopback
// TCP connection: framing, checksums, the predictor slot, prediction, and the
// ack stream, reported as records/s. It is a `go test -bench -cpuprofile`
// entry point for the serve path; the repo's throughput numbers come from
// bench/ (the stream and churn workloads).
func BenchmarkServeLoopback(b *testing.B) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	tr := wl.MustGenerate(20000)
	srv, err := New(Config{Predictor: defaultFlags(), Shards: 2, Limits: Limits{Window: 8}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go srv.ListenAndServe("127.0.0.1:0")
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Dial(addr, Hello{Benchmark: "gcc"}, DialOptions{Timeout: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		sum, err := c.Stream(tr, 2048, nil)
		c.Close()
		if err != nil {
			b.Fatal(err)
		}
		if sum.Records != len(tr) {
			b.Fatalf("summary records %d, want %d", sum.Records, len(tr))
		}
	}
	b.StopTimer()
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(b.N*len(tr))/elapsed.Seconds(), "records/s")
	}
}
