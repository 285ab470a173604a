package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/sim"
)

// TestServeGracefulDrainLosesNoAckedFrame is the drain contract: a Shutdown
// mid-stream must process every frame the server accepted, acknowledge it,
// and fold it into a final Summary (Drained=true) whose counters are
// bit-identical to a local sim over exactly the processed prefix of the
// trace. Nothing acknowledged may be missing from the summary.
func TestServeGracefulDrainLosesNoAckedFrame(t *testing.T) {
	const (
		warmup = 32
		frame  = 100
	)
	srv, addr := startServer(t, Config{Shards: 2, Limits: Limits{Window: 2}})
	tr := benchTrace(t, "gcc", 5000)
	// A long stream: 300 frames of 100 records, paced by the ack callback so
	// the drain lands mid-flight with plenty of runway on both sides.
	long := tr
	for len(long) < 30000 {
		long = append(long, tr...)
	}

	c, err := Dial(addr, Hello{Benchmark: "gcc", Warmup: warmup}, DialOptions{Timeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var (
		mu    sync.Mutex
		acked []Ack
	)
	trigger := make(chan struct{})
	var once sync.Once
	shutdownDone := make(chan error, 1)
	go func() {
		<-trigger
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	sum, err := c.Stream(long, frame, func(a Ack, _ time.Duration) {
		mu.Lock()
		acked = append(acked, a)
		n := len(acked)
		mu.Unlock()
		if n == 5 {
			once.Do(func() { close(trigger) })
		}
		time.Sleep(2 * time.Millisecond)
	})
	if err != nil {
		t.Fatalf("stream during drain: %v", err)
	}
	if !sum.Drained {
		t.Fatal("summary not marked drained (shutdown landed after the full stream?)")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Every acknowledged frame must be inside the summary.
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no acks before drain")
	}
	if sum.Frames < len(acked) {
		t.Fatalf("summary covers %d frames but client holds %d acks — acked work was lost", sum.Frames, len(acked))
	}
	for i, a := range acked {
		if a.Seq != uint64(i+1) {
			t.Fatalf("ack %d has seq %d", i, a.Seq)
		}
	}
	last := acked[len(acked)-1]
	if last.TotalExecuted > sum.Executed || last.TotalMisses > sum.Misses {
		t.Fatalf("last ack totals (%d,%d) exceed summary (%d,%d)",
			last.TotalExecuted, last.TotalMisses, sum.Executed, sum.Misses)
	}

	// The drain must have stopped mid-stream, and the summary must equal a
	// local sim over exactly the processed prefix.
	if sum.Records >= len(long) {
		t.Fatalf("server processed the whole stream (%d records); drain never interrupted it", sum.Records)
	}
	if sum.Records != sum.Frames*frame {
		t.Fatalf("summary records %d != %d full frames of %d", sum.Records, sum.Frames, frame)
	}
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(pred, long[:sum.Records], sim.Options{Warmup: warmup})
	if sum.Executed != want.Executed || sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
		t.Fatalf("drained summary (%d,%d,%d) != sim over processed prefix (%d,%d,%d)",
			sum.Executed, sum.Misses, sum.NoPrediction, want.Executed, want.Misses, want.NoPrediction)
	}
}

// TestServeShutdownIdle checks that draining a server with no sessions
// returns promptly and further connections are refused.
func TestServeShutdownIdle(t *testing.T) {
	srv, addr := startServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	if _, err := Dial(addr, Hello{}, DialOptions{Timeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServeForcedShutdown checks the hard-stop path: an already-expired
// context cuts sessions without waiting.
func TestServeForcedShutdown(t *testing.T) {
	srv, addr := startServer(t, Config{Limits: Limits{Window: 1}})
	c, err := Dial(addr, Hello{Benchmark: "gcc"}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("forced shutdown err %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("forced shutdown took %v", d)
	}
}
