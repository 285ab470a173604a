package cluster

import (
	"context"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/trace"
)

// startServeWithSessions runs a backend with its session registry mounted on
// an httptest mux, returning the backend, its wire address, and the metrics
// host:port the fan-in polls.
func startServeWithSessions(t *testing.T) (*serve.Server, string, string) {
	t.Helper()
	srv, addr := startServe(t)
	mux := http.NewServeMux()
	sessiontrack.Mount(mux, sessiontrack.HTTPConfig{Local: srv.Sessions()})
	ms := httptest.NewServer(mux)
	t.Cleanup(ms.Close)
	u, _ := net.ResolveTCPAddr("tcp", ms.Listener.Addr().String())
	return srv, addr, u.String()
}

// TestFaninMergesBackendAndProxyViews routes sessions through the router and
// asserts the fan-in view attributes each one to a real backend, carries the
// backend's prediction stats, and attaches the router leg's journal state.
func TestFaninMergesBackendAndProxyViews(t *testing.T) {
	_, b1, m1 := startServeWithSessions(t)
	_, b2, m2 := startServeWithSessions(t)
	r, raddr := startRouter(t, []string{b1, b2}, func(c *Config) {
		c.BackendMetrics = map[string]string{b1: m1, b2: m2}
	})

	// Hold several sessions open mid-stream so the view sees them live.
	const n = 4
	tr := suiteTrace(t, "gcc", 4000)
	type open struct{ c *serve.Client }
	var clients []open
	for i := 0; i < n; i++ {
		c, err := serve.Dial(raddr, serve.Hello{Benchmark: "gcc", Tenant: "teamA"},
			serve.DialOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, open{c})
		defer c.Close()
	}
	// Write a prefix on each so frames flow through journal + backend. No
	// FrameDone follows until the view is checked, so every session stays
	// live however fast the frames go through.
	const frames, perFrame = 4, 256
	for _, cl := range clients {
		for seq := uint64(1); seq <= frames; seq++ {
			payload := binary.AppendUvarint(nil, seq)
			payload = trace.AppendRecords(payload, tr[(seq-1)*perFrame:seq*perFrame])
			if err := cl.c.WriteFrame(serve.FrameRecords, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Poll the fan-in until every proxy leg is merged with a backend row.
	fan := r.Fanin(time.Second)
	var v sessiontrack.View
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var err error
		v, err = fan.View(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		merged := 0
		for _, s := range v.Sessions {
			// Journal bytes only exist on the proxy leg, so requiring them
			// proves the merge attached router state, not just identity.
			if s.Kind == "serve" && s.Upstream != 0 && s.Backend != "" && s.JournalBytes > 0 {
				merged++
			}
		}
		if merged >= n {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if len(v.Backends) != 2 {
		t.Fatalf("view has %d backends, want 2", len(v.Backends))
	}
	for _, be := range v.Backends {
		if be.Err != "" {
			t.Fatalf("backend %s poll failed: %s", be.Addr, be.Err)
		}
		if be.MetricsAddr == "" {
			t.Fatalf("backend %s missing metrics addr", be.Addr)
		}
	}
	local, _ := r.Sessions().View(context.Background())
	proxyByID := map[uint64]sessiontrack.SessionSnapshot{}
	for _, p := range local.Sessions {
		proxyByID[p.ID] = p
	}
	merged := 0
	for _, s := range v.Sessions {
		if s.Kind != "serve" {
			continue
		}
		merged++
		if s.Backend != b1 && s.Backend != b2 {
			t.Fatalf("session %d attributed to %q, want one of %q/%q", s.ID, s.Backend, b1, b2)
		}
		if s.Tenant != "teamA" {
			t.Fatalf("session %d lost tenant: %+v", s.ID, s)
		}
		if _, ok := proxyByID[s.Upstream]; !ok {
			t.Fatalf("session %d upstream %d has no proxy leg", s.ID, s.Upstream)
		}
		// A serve session never writes journal accounting of its own, so a
		// non-zero value proves the proxy leg's state was attached. (Exact
		// bytes race with the ongoing stream, so only presence is asserted.)
		if s.JournalBytes == 0 && s.State == "active" {
			t.Fatalf("session %d merged row missing proxy journal state: %+v", s.ID, s)
		}
	}
	if merged < n {
		t.Fatalf("only %d of %d sessions merged with a backend row", merged, n)
	}
}

// TestFaninSurvivesDeadMetricsEndpoint points one backend's metrics address
// at a closed port: its poll error must land in the backend line while the
// sessions stay visible as proxy rows.
func TestFaninSurvivesDeadMetricsEndpoint(t *testing.T) {
	_, b1, _ := startServeWithSessions(t)
	// A dead metrics address: bind a port, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	r, raddr := startRouter(t, []string{b1}, func(c *Config) {
		c.BackendMetrics = map[string]string{b1: dead}
	})
	c, err := serve.Dial(raddr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := suiteTrace(t, "gcc", 2000)
	go c.Stream(tr, 256, nil)

	fan := r.Fanin(500 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		v, err := fan.View(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Backends) == 1 && v.Backends[0].Err != "" && len(v.Sessions) >= 1 {
			if v.Sessions[0].Kind != "proxy" {
				t.Fatalf("unmerged session should be the proxy row, got %+v", v.Sessions[0])
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("fan-in never reported the dead metrics endpoint alongside the proxy row")
}
