package sessiontrack

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// retuneConn is a fakeConn whose owner supports forced retuning.
type retuneConn struct {
	fakeConn
	retuneOK bool
	retunes  int
}

func (c *retuneConn) Retune() bool {
	c.retunes++
	return c.retuneOK
}

func newAdminPlane(t *testing.T, readOnly bool) (*httptest.Server, *Registry, *retuneConn) {
	t.Helper()
	reg := NewRegistry(Options{Service: "admin"})
	conn := &retuneConn{retuneOK: true}
	if _, err := register(reg, conn, Meta{Kind: KindServe, Benchmark: "gcc"}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	Mount(mux, HTTPConfig{Local: reg, ReadOnly: readOnly})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg, conn
}

func post(t *testing.T, url, contentType string, body io.Reader) (*http.Response, AdminResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res AdminResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("%s: response is not AdminResult JSON: %v", url, err)
	}
	return resp, res
}

func TestAdminKillDrainRetune(t *testing.T) {
	srv, _, conn := newAdminPlane(t, false)

	resp, res := post(t, srv.URL+"/sessions/1/kill", "", nil)
	if resp.StatusCode != http.StatusOK || !res.OK || res.Action != "kill" || res.ID != 1 {
		t.Fatalf("kill: status %d, result %+v", resp.StatusCode, res)
	}
	if conn.kills.Load() != 1 {
		t.Fatalf("kills = %d", conn.kills.Load())
	}

	resp, res = post(t, srv.URL+"/sessions/1/drain", "application/json", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusOK || !res.OK || res.Action != "drain" {
		t.Fatalf("drain: status %d, result %+v", resp.StatusCode, res)
	}
	if conn.drains.Load() != 1 {
		t.Fatalf("drains = %d", conn.drains.Load())
	}

	resp, res = post(t, srv.URL+"/sessions/1/retune", "application/json; charset=utf-8", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusOK || !res.OK || res.Action != "retune" {
		t.Fatalf("retune: status %d, result %+v", resp.StatusCode, res)
	}
	if conn.retunes != 1 {
		t.Fatalf("retunes = %d", conn.retunes)
	}
}

func TestAdminRetuneWithoutTunerConflicts(t *testing.T) {
	srv, _, conn := newAdminPlane(t, false)
	conn.retuneOK = false // owner has no active tuner
	resp, res := post(t, srv.URL+"/sessions/1/retune", "", nil)
	if resp.StatusCode != http.StatusConflict || res.OK {
		t.Fatalf("status %d, result %+v", resp.StatusCode, res)
	}
	if !strings.Contains(res.Error, "no active tuner") {
		t.Fatalf("error %q", res.Error)
	}
}

func TestAdminVerbRejections(t *testing.T) {
	srv, _, conn := newAdminPlane(t, false)

	// Wrong method: the Go 1.22 method-qualified patterns answer 405.
	resp, err := http.Get(srv.URL + "/sessions/1/kill")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET kill: status %d, want 405", resp.StatusCode)
	}

	// Non-JSON body: 415, and the session is untouched.
	resp2, res := post(t, srv.URL+"/sessions/1/kill", "text/plain", strings.NewReader("x"))
	if resp2.StatusCode != http.StatusUnsupportedMediaType || res.OK {
		t.Fatalf("text/plain kill: status %d, result %+v", resp2.StatusCode, res)
	}

	// Unknown and malformed ids.
	if resp, res := post(t, srv.URL+"/sessions/99/kill", "", nil); resp.StatusCode != http.StatusNotFound || res.ID != 99 {
		t.Fatalf("missing id: status %d, result %+v", resp.StatusCode, res)
	}
	if resp, _ := post(t, srv.URL+"/sessions/abc/kill", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", resp.StatusCode)
	}

	if n := conn.kills.Load(); n != 0 {
		t.Fatalf("rejected verbs still killed the session %d times", n)
	}
}

func TestAdminReadOnlyGuard(t *testing.T) {
	srv, _, conn := newAdminPlane(t, true)
	for _, verb := range []string{"kill", "drain", "retune"} {
		resp, res := post(t, srv.URL+"/sessions/1/"+verb, "", nil)
		if resp.StatusCode != http.StatusForbidden || res.OK {
			t.Fatalf("%s on read-only instance: status %d, result %+v", verb, resp.StatusCode, res)
		}
		if !strings.Contains(res.Error, "read-only") {
			t.Fatalf("%s error %q", verb, res.Error)
		}
	}
	if conn.kills.Load()+conn.drains.Load() != 0 || conn.retunes != 0 {
		t.Fatal("read-only instance still mutated the session")
	}
	// Reads stay up.
	resp, err := http.Get(srv.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read-only GET /sessions: status %d", resp.StatusCode)
	}
}
