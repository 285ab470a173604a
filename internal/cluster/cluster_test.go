package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// defaultFlags mirrors the tools' default predictor configuration (2lev,
// p=3, unbounded) without going through a FlagSet.
func defaultFlags() cli.PredictorFlags {
	return cli.PredictorFlags{
		Pred:      "2lev",
		Path:      3,
		HistShare: 32,
		TabShare:  2,
		Precision: -1,
		Scheme:    "reverse",
		KeyOp:     "xor",
		Table:     "unbounded",
		Update:    "2bc",
	}
}

// startServe runs an in-process ibpserved-equivalent on loopback.
func startServe(t testing.TB) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.New(serve.Config{Predictor: defaultFlags(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// startRouter runs a Router over the given backends on loopback. mut may
// adjust the config before New.
func startRouter(t testing.TB, backends []string, mut func(*Config)) (*Router, string) {
	t.Helper()
	cfg := Config{
		Backends:      backends,
		Predictor:     defaultFlags(),
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
		DialTimeout:   2 * time.Second,
		DialRetries:   1,
		DialBackoff:   20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Close() })
	return r, ln.Addr().String()
}

var (
	trMu    sync.Mutex
	trMemo  = map[string]trace.Trace{}
	simMemo = map[string]sim.Result{}
)

// suiteTrace memoizes one generated benchmark trace per test binary.
func suiteTrace(t testing.TB, name string, n int) trace.Trace {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, n)
	trMu.Lock()
	defer trMu.Unlock()
	if tr, ok := trMemo[key]; ok && len(tr) > 0 {
		return tr
	}
	cfg, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(n)
	trMemo[key] = tr
	return tr
}

// wantResult memoizes the local uninterrupted sim.Run for a trace.
func wantResult(t testing.TB, name string, tr trace.Trace, warmup int) sim.Result {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%d", name, len(tr), warmup)
	trMu.Lock()
	defer trMu.Unlock()
	if res, ok := simMemo[key]; ok {
		return res
	}
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(pred, tr, sim.Options{Warmup: warmup})
	simMemo[key] = res
	return res
}

// checkSummary requires the routed session's accounting to be bit-identical
// to the uninterrupted local sim.Run — the cluster correctness contract.
func checkSummary(t *testing.T, name string, sum serve.Summary, tr trace.Trace, warmup int) {
	t.Helper()
	want := wantResult(t, name, tr, warmup)
	if sum.Executed != want.Executed {
		t.Errorf("%s: executed %d, sim %d", name, sum.Executed, want.Executed)
	}
	if sum.Misses != want.Misses {
		t.Errorf("%s: misses %d, sim %d", name, sum.Misses, want.Misses)
	}
	if sum.NoPrediction != want.NoPrediction {
		t.Errorf("%s: noPrediction %d, sim %d", name, sum.NoPrediction, want.NoPrediction)
	}
	wantRate := 0.0
	if want.Executed > 0 {
		wantRate = 100 * float64(want.Misses) / float64(want.Executed)
	}
	if sum.MissRate != wantRate {
		t.Errorf("%s: miss rate %v, sim %v (must be bit-identical)", name, sum.MissRate, wantRate)
	}
	if sum.Records != len(tr) {
		t.Errorf("%s: records %d, trace %d", name, sum.Records, len(tr))
	}
	if sum.Router == nil {
		t.Errorf("%s: summary carries no router info", name)
	}
}

// TestRouterBasic: a session through the router behaves exactly like a
// direct serve session, and the Summary reports its placement.
func TestRouterBasic(t *testing.T) {
	_, b1 := startServe(t)
	_, b2 := startServe(t)
	r, addr := startRouter(t, []string{b1, b2}, nil)

	const warmup = 64
	tr := suiteTrace(t, "gcc", 8000)
	c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc", Warmup: warmup}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Session().Window <= 0 || c.Session().Predictor == "" {
		t.Fatalf("router handshake granted bad session: %+v", c.Session())
	}
	sum, err := c.Stream(tr, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "gcc", sum, tr, warmup)
	if sum.Router.Failovers != 0 {
		t.Errorf("failovers %d on a healthy cluster", sum.Router.Failovers)
	}
	if sum.Router.Backend != b1 && sum.Router.Backend != b2 {
		t.Errorf("summary backend %q not in membership", sum.Router.Backend)
	}
	if got := r.SessionCount(); got != 0 {
		t.Errorf("%d sessions still registered after completion", got)
	}
}

// TestRouterEmptySession: a Done with no records still yields a summary.
func TestRouterEmptySession(t *testing.T) {
	_, b1 := startServe(t)
	_, addr := startRouter(t, []string{b1}, nil)
	c, err := serve.Dial(addr, serve.Hello{Benchmark: "empty"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum, err := c.Stream(nil, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 0 || sum.Executed != 0 {
		t.Fatalf("empty session summary %+v", sum)
	}
	if sum.Router == nil {
		t.Fatal("empty session summary carries no router info")
	}
}

// TestRouterDrainMigration: draining the backend that hosts a live session
// migrates it — replay onto the other backend, bit-identical summary.
func TestRouterDrainMigration(t *testing.T) {
	_, b1 := startServe(t)
	_, b2 := startServe(t)
	r, addr := startRouter(t, []string{b1, b2}, nil)

	const warmup = 32
	tr := suiteTrace(t, "perl", 12000)
	c, err := serve.Dial(addr, serve.Hello{Benchmark: "perl", Warmup: warmup}, serve.DialOptions{Timeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var drainOnce sync.Once
	sum, err := c.Stream(tr, 128, func(a serve.Ack, _ time.Duration) {
		if a.Seq < 3 {
			return
		}
		drainOnce.Do(func() {
			for _, st := range r.BackendStatuses() {
				if st.Sessions > 0 {
					if err := r.DrainBackend(st.Addr); err != nil {
						t.Errorf("drain %s: %v", st.Addr, err)
					}
					return
				}
			}
			t.Error("no backend had an attached session to drain")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "perl", sum, tr, warmup)
	if sum.Router.Failovers < 1 {
		t.Errorf("failovers %d after drain, want >= 1", sum.Router.Failovers)
	}
	if sum.Router.ReplayedFrames < 1 {
		t.Errorf("replayedFrames %d after drain, want >= 1", sum.Router.ReplayedFrames)
	}
	for _, st := range r.BackendStatuses() {
		if st.State == StateDraining.String() && st.Sessions != 0 {
			t.Errorf("draining backend %s still has %d sessions", st.Addr, st.Sessions)
		}
	}
}

// TestRouterFailoverLostIsHonest: with a journal budget so small that acked
// frames are evicted immediately, a backend death must fail the session
// with an explicit failover-lost error — never a silently wrong summary.
func TestRouterFailoverLostIsHonest(t *testing.T) {
	srv, b1 := startServe(t)
	_, addr := startRouter(t, []string{b1}, func(c *Config) {
		c.JournalBytes = 1 // evict every acked frame
	})

	tr := suiteTrace(t, "gcc", 8000)
	c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var killOnce sync.Once
	_, err = c.Stream(tr, 128, func(a serve.Ack, _ time.Duration) {
		if a.Seq >= 3 {
			killOnce.Do(func() { srv.Close() })
		}
	})
	if err == nil {
		t.Fatal("stream succeeded after backend death with an evicted journal")
	}
	var we *serve.WireError
	if !errors.As(err, &we) || we.Code != CodeFailoverLost {
		t.Fatalf("want %s error, got %v", CodeFailoverLost, err)
	}
}

// TestRouterNoBackend: when every backend is gone, a session fails with an
// explicit no-backend error instead of hanging.
func TestRouterNoBackend(t *testing.T) {
	srv, b1 := startServe(t)
	srv.Close() // dead before the session arrives
	_, addr := startRouter(t, []string{b1}, func(c *Config) {
		c.DialRetries = 0
		c.FailoverRounds = 1
	})
	tr := suiteTrace(t, "gcc", 8000)
	c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Stream(tr, 512, nil)
	var we *serve.WireError
	if !errors.As(err, &we) || we.Code != CodeNoBackend {
		t.Fatalf("want %s error, got %v", CodeNoBackend, err)
	}
}

// TestRouterRejectsBadHello: a deterministic rejection is relayed verbatim,
// not retried around the ring.
func TestRouterRejectsBadHello(t *testing.T) {
	_, b1 := startServe(t)
	_, addr := startRouter(t, []string{b1}, nil)
	bad := defaultFlags()
	bad.Path = -3
	_, err := serve.Dial(addr, serve.Hello{Predictor: &bad}, serve.DialOptions{Timeout: 5 * time.Second})
	var we *serve.WireError
	if !errors.As(err, &we) || we.Code != serve.CodeBadHello {
		t.Fatalf("want %s error, got %v", serve.CodeBadHello, err)
	}
}

// BenchmarkRouterLoopback measures end-to-end throughput through the full
// cluster path — router framing, journaling, relay, and a 2-backend fleet —
// for comparison against BenchmarkServeLoopback's direct-serve baseline. Like
// it, this is a profiling entry point; bench/'s routed workload is the
// measured number.
func BenchmarkRouterLoopback(b *testing.B) {
	_, b1 := startServe(b)
	_, b2 := startServe(b)
	_, addr := startRouter(b, []string{b1, b2}, nil)
	tr := suiteTrace(b, "gcc", 20000)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 30 * time.Second})
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

// BenchmarkRouterScaling measures aggregate throughput through one router as
// the loopback backend fleet grows, with as many concurrent clients as
// backends. On a multi-core host the records/s column should scale close to
// linearly until the router's own relay loop saturates; the gap from linear
// is the router's overhead. bench/ runs at GOMAXPROCS=1, so this is the
// repo's only multi-P throughput probe.
func BenchmarkRouterScaling(b *testing.B) {
	for _, backends := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends=%d", backends), func(b *testing.B) {
			addrs := make([]string, backends)
			for i := range addrs {
				_, addrs[i] = startServe(b)
			}
			_, addr := startRouter(b, addrs, nil)
			tr := suiteTrace(b, "gcc", 20000)

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errc := make(chan error, backends)
			for w := 0; w < backends; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"},
							serve.DialOptions{Timeout: 30 * time.Second})
						if err != nil {
							errc <- err
							return
						}
						sum, err := c.Stream(tr, 2048, nil)
						c.Close()
						if err != nil {
							errc <- err
							return
						}
						if sum.Records != len(tr) {
							errc <- fmt.Errorf("summary records %d, want %d", sum.Records, len(tr))
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			if elapsed := b.Elapsed(); elapsed > 0 {
				b.ReportMetric(float64(b.N*backends*len(tr))/elapsed.Seconds(), "records/s")
			}
		})
	}
}
