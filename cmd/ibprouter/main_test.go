package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/cluster"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
	"github.com/oocsb/ibp/internal/workload"
)

// smokePolicy is scripts/tuner_smoke.sh's -tunerpolicy: escalate on the
// first 256-branch window with >= 2% misses.
const smokePolicy = "warmup=0;interval=256;miss=0.02;low=0.001;hyst=1;swaps=2;coldmax=1;target=ittage:8,512,2"

// syncBuffer is a writer the daemon fills from its goroutine while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one in-process run of ibprouter.
type daemon struct {
	addr           string
	stdout, stderr *syncBuffer
	cancel         context.CancelFunc
	done           chan error
	once           sync.Once
	err            error
}

var (
	listenLine  = regexp.MustCompile(`ibprouter: listening on (\S+), \d+ backends\n`)
	metricsLine = regexp.MustCompile(`msg="metrics endpoint up" addr=(\S+)`)
)

// startDaemon runs ibprouter with args until the test ends (or stop), and
// returns once it listens.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{stdout: &syncBuffer{}, stderr: &syncBuffer{}, cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), d.stdout, d.stderr) }()
	t.Cleanup(func() { d.stop() })
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := listenLine.FindStringSubmatch(d.stdout.String()); m != nil {
			d.addr = m[1]
			return d
		}
		select {
		case err := <-d.done:
			t.Fatalf("ibprouter exited before listening: %v\n%s", err, d.stderr)
		default:
		}
	}
	t.Fatalf("ibprouter never listened; stderr:\n%s", d.stderr)
	return nil
}

// stop cancels the run's context, as the first SIGTERM does, and returns
// what run returned.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.cancel()
		select {
		case d.err = <-d.done:
		case <-time.After(60 * time.Second):
			d.err = fmt.Errorf("no exit within 60s of the drain")
		}
	})
	return d.err
}

// defaultPredictor returns the -pred family flags at their defaults.
func defaultPredictor() cli.PredictorFlags {
	var pf cli.PredictorFlags
	pf.Register(flag.NewFlagSet("defaults", flag.ContinueOnError))
	return pf
}

// startBackend runs an in-process ibpserved equivalent on loopback.
func startBackend(t *testing.T, tun *tuner.Tuner) string {
	t.Helper()
	srv, err := serve.New(serve.Config{Predictor: defaultPredictor(), Shards: 2, Tuner: tun})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func suiteTrace(t *testing.T, name string, n int) trace.Trace {
	t.Helper()
	cfg, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.MustGenerate(n)
}

func stream(t *testing.T, addr string, tr trace.Trace, onAck func(serve.Ack, time.Duration)) serve.Summary {
	t.Helper()
	c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum, err := c.Stream(tr, 128, onAck)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestRouterDrainOnCancel: cancelling run's context mid-stream, as SIGTERM
// does, lets the routed session run to completion, writes -summaryjson
// with "graceful": true and the fleet's final state, and returns nil.
func TestRouterDrainOnCancel(t *testing.T) {
	backend := startBackend(t, nil)
	path := filepath.Join(t.TempDir(), "summary.json")
	d := startDaemon(t, "-backends", backend, "-summaryjson", path, "-log", "warn")
	tr := suiteTrace(t, "gcc", 8000)
	acks := 0
	sum := stream(t, d.addr, tr, func(serve.Ack, time.Duration) {
		if acks++; acks == 3 {
			d.cancel()
		}
	})
	if sum.Drained || sum.Records != len(tr) || sum.Router == nil || sum.Router.Backend != backend {
		t.Errorf("session cut by the router's drain: %+v", sum)
	}
	if err := d.stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(d.stdout.String(), "ibprouter: drained cleanly\n") {
		t.Errorf("stdout:\n%s", d.stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Addr     string                  `json:"addr"`
		Backends []cluster.BackendStatus `json:"backends"`
		Graceful bool                    `json:"graceful"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	want := []cluster.BackendStatus{{Addr: backend, State: "up"}}
	if !got.Graceful || got.Addr != d.addr || fmt.Sprint(got.Backends) != fmt.Sprint(want) {
		t.Errorf("run summary:\n%s", raw)
	}
}

// TestRouterReadOnlyRefusesKill: the router's -readonly answers 403 to the
// kill verb, and the routed session runs on to its Summary.
func TestRouterReadOnlyRefusesKill(t *testing.T) {
	backend := startBackend(t, nil)
	d := startDaemon(t, "-backends", backend, "-metrics", "127.0.0.1:0", "-readonly")
	m := metricsLine.FindStringSubmatch(d.stderr.String())
	if m == nil {
		t.Fatalf("no metrics endpoint in the log:\n%s", d.stderr)
	}
	c, err := serve.Dial(d.addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	url := fmt.Sprintf("http://%s/sessions/%d/kill", m[1], c.Session().Session)
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, http.StatusForbidden)
	}
	tr := suiteTrace(t, "gcc", 2000)
	if sum, err := c.Stream(tr, 256, nil); err != nil || sum.Records != len(tr) {
		t.Errorf("refused kill still cut the session: %+v, %v", sum, err)
	}
}

// TestRouterTunerPolicy: a malformed -tunerpolicy fails startup; a good one
// is pinned into every forwarded Hello, so a session on a -tuner backend
// whose own policy never escalates ends on the pinned policy's target.
func TestRouterTunerPolicy(t *testing.T) {
	var stdout, stderr syncBuffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-backends", "127.0.0.1:1", "-tunerpolicy", "speed=9"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "tuner policy") {
		t.Errorf("malformed -tunerpolicy: err = %v", err)
	}
	if strings.Contains(stdout.String(), "listening") {
		t.Errorf("router listened despite a malformed policy:\n%s", stdout.String())
	}

	never, err := tuner.ParsePolicy("miss=1;low=0.5")
	if err != nil {
		t.Fatal(err)
	}
	backend := startBackend(t, tuner.New(tuner.Options{Policy: never}))
	policy, err := tuner.ParsePolicy(smokePolicy)
	if err != nil {
		t.Fatal(err)
	}
	target, err := policy.Target.Build()
	if err != nil {
		t.Fatal(err)
	}
	base, err := defaultPredictor().Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := suiteTrace(t, "gcc", 8000)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tunerpolicy", smokePolicy}, target.Name()},
		{nil, base.Name()},
	} {
		d := startDaemon(t, append([]string{"-backends", backend, "-log", "warn"}, tc.args...)...)
		if sum := stream(t, d.addr, tr, nil); sum.Predictor != tc.want {
			t.Errorf("%v: session ended on %q, want %q", tc.args, sum.Predictor, tc.want)
		}
		if err := d.stop(); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
}
