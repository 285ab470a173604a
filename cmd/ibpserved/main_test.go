package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/workload"
)

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

// daemon is one in-process run of ibpserved.
type daemon struct {
	addr           string
	stdout, stderr *syncBuffer
	cancel         context.CancelFunc
	done           chan error
	once           sync.Once
	err            error
}

var (
	listenLine  = regexp.MustCompile(`ibpserved: listening on (\S+)\n`)
	metricsLine = regexp.MustCompile(`msg="metrics endpoint up" addr=(\S+)`)
)

// startDaemon runs ibpserved with args until the test ends (or stop), and
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
			t.Fatalf("ibpserved exited before listening: %v\n%s", err, d.stderr)
		default:
		}
	}
	t.Fatalf("ibpserved never listened; stderr:\n%s", d.stderr)
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

func (d *daemon) metricsAddr(t *testing.T) string {
	t.Helper()
	m := metricsLine.FindStringSubmatch(d.stderr.String())
	if m == nil {
		t.Fatalf("no metrics endpoint in the log:\n%s", d.stderr)
	}
	return m[1]
}

// TestServedReadOnlyRefusesKill: -readonly answers 403 to the kill verb and
// the session it named runs on to its Summary; without the flag the same
// request kills it.
func TestServedReadOnlyRefusesKill(t *testing.T) {
	cfg, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(2000)
	for _, tc := range []struct {
		readOnly bool
		status   int
	}{
		{true, http.StatusForbidden},
		{false, http.StatusOK},
	} {
		t.Run(fmt.Sprintf("readonly=%v", tc.readOnly), func(t *testing.T) {
			args := []string{"-metrics", "127.0.0.1:0", "-log", "info"}
			if tc.readOnly {
				args = append(args, "-readonly")
			}
			d := startDaemon(t, args...)
			c, err := serve.Dial(d.addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			url := fmt.Sprintf("http://%s/sessions/%d/kill", d.metricsAddr(t), c.Session().Session)
			resp, err := http.Post(url, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, tc.status)
			}
			sum, err := c.Stream(tr, 256, nil)
			if tc.readOnly && (err != nil || sum.Records != len(tr)) {
				t.Errorf("refused kill still cut the session: %+v, %v", sum, err)
			}
			if !tc.readOnly && err == nil {
				t.Errorf("killed session still delivered a Summary: %+v", sum)
			}
			if err := d.stop(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// TestServedDrainOnCancel: cancelling run's context mid-stream, as SIGTERM
// does, drains the live session into a Drained Summary, writes
// -summaryjson with "graceful": true, and returns nil.
func TestServedDrainOnCancel(t *testing.T) {
	cfg, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(20000)
	path := filepath.Join(t.TempDir(), "summary.json")
	d := startDaemon(t, "-summaryjson", path, "-tag", "t1", "-window", "2", "-log", "warn")
	c, err := serve.Dial(d.addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	acks := 0
	sum, err := c.Stream(tr, 100, func(serve.Ack, time.Duration) {
		if acks++; acks == 5 {
			d.cancel()
		}
		time.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Drained || sum.Records == 0 || sum.Records >= len(tr) {
		t.Errorf("mid-stream drain summary: %+v (trace %d records)", sum, len(tr))
	}
	if err := d.stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(d.stdout.String(), "ibpserved: drained cleanly\n") {
		t.Errorf("stdout:\n%s", d.stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Addr     string         `json:"addr"`
		Tag      string         `json:"tag"`
		Graceful bool           `json:"graceful"`
		Uptime   string         `json:"uptime"`
		Metrics  map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s: %v", raw, err)
	}
	if !got.Graceful || got.Addr != d.addr || got.Tag != "t1" || got.Uptime == "" || got.Metrics == nil {
		t.Errorf("run summary:\n%s", raw)
	}
}
