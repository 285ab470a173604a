package serve

import (
	"errors"
	"log/slog"
	"net"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// defaultFlags returns the tools' default predictor flag values (2lev, p=3,
// unbounded) without going through a FlagSet.
func defaultFlags() cli.PredictorFlags {
	return cli.PredictorFlags{
		Pred:      "2lev",
		Path:      3,
		HistShare: 32,
		TabShare:  2,
		Precision: -1, // core.AutoPrecision
		Scheme:    "reverse",
		KeyOp:     "xor",
		Table:     "unbounded",
		Update:    "2bc",
	}
}

// startServer runs a Server on a loopback listener and returns it with its
// address. The server is torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Predictor.Pred == "" {
		cfg.Predictor = defaultFlags()
	}
	srv, err := New(cfg)
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

// benchTrace memoizes one small benchmark trace per test binary run.
var benchTraces = map[string]trace.Trace{}

func benchTrace(t *testing.T, name string, n int) trace.Trace {
	t.Helper()
	key := name
	if tr, ok := benchTraces[key]; ok && len(tr) > 0 {
		return tr
	}
	cfg, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(n)
	benchTraces[key] = tr
	return tr
}

func TestServeSingleSession(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	tr := benchTrace(t, "gcc", 5000)

	c, err := Dial(addr, Hello{Benchmark: "gcc", Warmup: 100}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Session().Window <= 0 || c.Session().MaxFrameRecords <= 0 {
		t.Fatalf("handshake granted bad limits: %+v", c.Session())
	}

	var acks int
	var lastAck Ack
	sum, err := c.Stream(tr, 512, func(a Ack, rtt time.Duration) {
		acks++
		lastAck = a
		if rtt < 0 {
			t.Errorf("negative rtt %v", rtt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(pred, tr, sim.Options{Warmup: 100})
	if sum.Executed != want.Executed || sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
		t.Fatalf("summary %+v != local sim %+v", sum, want)
	}
	if sum.Records != len(tr) {
		t.Fatalf("summary records %d, want %d", sum.Records, len(tr))
	}
	if acks != sum.Frames || acks == 0 {
		t.Fatalf("got %d acks for %d frames", acks, sum.Frames)
	}
	if lastAck.TotalExecuted != want.Executed || lastAck.TotalMisses != want.Misses {
		t.Fatalf("rolling totals %+v diverge from final result %+v", lastAck, want)
	}
	if sum.Drained {
		t.Fatal("clean Done-terminated session reported as drained")
	}
}

func TestServeRollingAcksAreConsistent(t *testing.T) {
	_, addr := startServer(t, Config{})
	tr := benchTrace(t, "perl", 4000)
	c, err := Dial(addr, Hello{Benchmark: "perl"}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sumExec, sumMiss int
	var prevSeq uint64
	sum, err := c.Stream(tr, 256, func(a Ack, _ time.Duration) {
		if a.Seq != prevSeq+1 {
			t.Errorf("ack seq %d after %d", a.Seq, prevSeq)
		}
		prevSeq = a.Seq
		sumExec += a.Executed
		sumMiss += a.Misses
		if a.TotalExecuted != sumExec || a.TotalMisses != sumMiss {
			t.Errorf("rolling totals (%d,%d) != summed per-frame (%d,%d)",
				a.TotalExecuted, a.TotalMisses, sumExec, sumMiss)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != sumExec || sum.Misses != sumMiss {
		t.Fatalf("summary (%d,%d) != accumulated acks (%d,%d)", sum.Executed, sum.Misses, sumExec, sumMiss)
	}
}

func TestServeConcurrentSessions(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 3, Limits: Limits{Window: 4}})
	benches := []string{"gcc", "perl", "xlisp", "eqn", "idl", "go"}
	type result struct {
		name string
		sum  Summary
		err  error
	}
	results := make(chan result, len(benches))
	for _, name := range benches {
		tr := benchTrace(t, name, 3000)
		go func() {
			c, err := Dial(addr, Hello{Benchmark: name}, DialOptions{Timeout: 10 * time.Second, Retries: 2})
			if err != nil {
				results <- result{name: name, err: err}
				return
			}
			defer c.Close()
			sum, err := c.Stream(tr, 300, nil)
			results <- result{name: name, sum: sum, err: err}
		}()
	}
	for range benches {
		r := <-results
		if r.err != nil {
			t.Fatalf("%s: %v", r.name, r.err)
		}
		tr := benchTrace(t, r.name, 3000)
		pred, err := defaultFlags().Build()
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Run(pred, tr, sim.Options{})
		if r.sum.Executed != want.Executed || r.sum.Misses != want.Misses {
			t.Fatalf("%s: concurrent session summary (%d,%d) != local sim (%d,%d)",
				r.name, r.sum.Executed, r.sum.Misses, want.Executed, want.Misses)
		}
	}
}

func TestServePredictorOverride(t *testing.T) {
	_, addr := startServer(t, Config{})
	tr := benchTrace(t, "ixx", 4000)
	over := defaultFlags()
	over.Pred = "btb-2bc"
	over.Table = "assoc4"
	over.Entries = 256
	c, err := Dial(addr, Hello{Benchmark: "ixx", Predictor: &over}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum, err := c.Stream(tr, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := over.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(pred, tr, sim.Options{})
	if sum.Executed != want.Executed || sum.Misses != want.Misses {
		t.Fatalf("override summary (%d,%d) != local sim (%d,%d)", sum.Executed, sum.Misses, want.Executed, want.Misses)
	}
	if sum.Predictor != pred.Name() {
		t.Fatalf("summary predictor %q, want %q", sum.Predictor, pred.Name())
	}
}

func TestServeEventCapture(t *testing.T) {
	_, addr := startServer(t, Config{})
	tr := benchTrace(t, "xlisp", 2000)
	c, err := Dial(addr, Hello{Benchmark: "xlisp", Events: true, Warmup: 50}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Session().Events {
		t.Fatal("events not granted")
	}
	var evs []EventRec
	c.OnEvents = func(_ uint64, frame []EventRec) { evs = append(evs, frame...) }
	sum, err := c.Stream(tr, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	indirect := tr.Indirect()
	if len(evs) != len(indirect) {
		t.Fatalf("captured %d events, want %d (one per indirect branch)", len(evs), len(indirect))
	}
	// Every wire field matches a full-capacity local sim capture.
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := ptrace.NewEventSink(len(indirect), 1)
	sim.Run(pred, tr, sim.Options{Warmup: 50, Events: sink})
	local := sink.Events()
	if len(local) != len(evs) {
		t.Fatalf("sim captured %d events, serve %d", len(local), len(evs))
	}
	var misses, warm int
	for i, ev := range evs {
		w := local[i]
		if ev.PC != w.PC || ev.Predicted != w.Predicted || ev.Actual != w.Actual ||
			ev.HasPred != w.HasPred || ev.Miss != w.Miss || ev.Warmup != w.Warmup {
			t.Fatalf("event %d: serve %+v, sim %+v", i, ev, w)
		}
		if ev.PC != indirect[i].PC || ev.Actual != indirect[i].Target {
			t.Fatalf("event %d: pc/actual %08x/%08x, want %08x/%08x",
				i, ev.PC, ev.Actual, indirect[i].PC, indirect[i].Target)
		}
		if ev.Warmup != (i < 50) {
			t.Fatalf("event %d: warmup flag %v", i, ev.Warmup)
		}
		if ev.Miss && !ev.Warmup {
			misses++
		}
		if ev.Warmup {
			warm++
		}
	}
	if misses != sum.Misses {
		t.Fatalf("event-stream misses %d != summary misses %d", misses, sum.Misses)
	}
	if warm != 50 {
		t.Fatalf("%d warmup events, want 50", warm)
	}
}

func TestServeRejectsBadHello(t *testing.T) {
	_, addr := startServer(t, Config{})
	bad := defaultFlags()
	bad.Path = -3
	_, err := Dial(addr, Hello{Predictor: &bad}, DialOptions{Timeout: 5 * time.Second})
	var we *WireError
	if !errors.As(err, &we) || we.Code != CodeBadHello {
		t.Fatalf("want bad-hello WireError, got %v", err)
	}
}

func TestServeRejectsOutOfOrderFrames(t *testing.T) {
	_, addr := startServer(t, Config{})
	c, err := Dial(addr, Hello{}, DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := benchTrace(t, "xlisp", 200)
	// Hand-roll a frame with a wrong sequence number.
	payload := appendRecordsFrame(nil, 7, tr[:10])
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := c.fw.WriteFrame(FrameRecords, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.fw.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := c.fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError {
		t.Fatalf("frame type %#x, want FrameError", f.Type)
	}
	var we WireError
	if err := unmarshalPayload(f.Payload, &we); err != nil {
		t.Fatal(err)
	}
	if we.Code != CodeBadSeq {
		t.Fatalf("error code %q, want %q", we.Code, CodeBadSeq)
	}
}

func TestServeSessionPanicIsolation(t *testing.T) {
	// Two sessions share the single shard; the first one's predictor is
	// swapped for a panicking stub. The panic must drop only that session —
	// the shard worker has to keep serving its sibling.
	srv, addr := startServer(t, Config{Shards: 1, Log: slog.New(slog.DiscardHandler)})
	tr := benchTrace(t, "xlisp", 500)

	// Victim session first: it will share the only shard with the panicker.
	victim, err := Dial(addr, Hello{Benchmark: "victim"}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	panicker, err := Dial(addr, Hello{Benchmark: "panicker"}, DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer panicker.Close()
	// Reach into the server and replace the panicker session's predictor
	// with one that blows up mid-frame. Neither session is streaming yet, so
	// the shard worker cannot be touching the predictor.
	for _, e := range srv.track.Live() {
		if sess, ok := e.Conn().(*session); ok && sess.hello.Benchmark == "panicker" {
			sess.kern = sim.NewKernel(panicPredictor{}, sim.Options{})
		}
	}

	if _, err := panicker.Stream(tr, 100, nil); err == nil {
		t.Fatal("panicking session returned a clean summary")
	} else {
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodePredictor {
			t.Fatalf("want predictor WireError, got %v", err)
		}
	}

	// The shard that hosted the panic must still serve the victim.
	sum, err := victim.Stream(tr, 100, nil)
	if err != nil {
		t.Fatalf("victim session failed after sibling panic: %v", err)
	}
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(pred, tr, sim.Options{})
	if sum.Executed != want.Executed || sum.Misses != want.Misses {
		t.Fatalf("victim summary (%d,%d) != local sim (%d,%d)", sum.Executed, sum.Misses, want.Executed, want.Misses)
	}
}

// panicPredictor blows up after a few predictions.
type panicPredictor struct{}

func (panicPredictor) Name() string { return "panic-stub" }
func (panicPredictor) Predict(pc uint32) (uint32, bool) {
	panic("injected predictor failure")
}
func (panicPredictor) Update(pc, target uint32) {}

func TestServeDialRetryBackoff(t *testing.T) {
	// Reserve an address with no listener: the first dial attempts fail,
	// then a server appears and the retry succeeds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srvReady := make(chan *Server, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		srv, err := New(Config{Predictor: defaultFlags()})
		if err != nil {
			return
		}
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		go srv.Serve(ln2)
		srvReady <- srv
	}()
	c, err := Dial(addr, Hello{}, DialOptions{Timeout: 2 * time.Second, Retries: 8, Backoff: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial with retries failed: %v", err)
	}
	c.Close()
	if srv := <-srvReady; srv != nil {
		srv.Close()
	}
}
