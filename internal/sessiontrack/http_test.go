package sessiontrack

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/table"
	"github.com/oocsb/ibp/internal/telemetry"
)

// newTestPlane builds a registry with two live sessions, a telemetry
// registry, and a flight recorder with one span for session 1, mounted on an
// httptest server — the full introspection plane in miniature.
func newTestPlane(t *testing.T) (*httptest.Server, *Registry, *telemetry.Registry) {
	t.Helper()
	reg := NewRegistry(Options{Service: "testsvc", Tag: "t0"})
	a, err := register(reg, &fakeConn{}, Meta{
		Kind:      KindServe,
		Benchmark: "gcc",
		Tenant:    "teamA",
		Predictor: "btb-2bc",
		Window:    16,
		Tables:    []table.Stats{{Kind: "assoc4", Capacity: 1024, Inserts: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := register(reg, &fakeConn{}, Meta{Kind: KindProxy, Benchmark: "perl"})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	a.FrameAcked(now, 1000, 900, 45, time.Millisecond)
	a.UpdateTables([]table.Stats{{Kind: "assoc4", Capacity: 1024, Inserts: 60}})
	b.SetBackend("127.0.0.1:9670")
	b.FrameAcked(now, 500, 400, 80, 0)
	b.JournalDelta(2048)

	tel := telemetry.New()
	tel.Counter("test_frames_total").Add(7)

	rec := flight.NewRecorder(flight.Options{Service: "testsvc", Capacity: 8})
	tr := rec.Tracer(rec.NextTraceID(), a.ID())
	sp := tr.Start(1)
	sp.SetRecords(1000)
	sp.StampAt(flight.Hop(0), now)
	sp.Finish()

	mux := http.NewServeMux()
	Mount(mux, HTTPConfig{Local: reg, Telemetry: tel, Flight: rec})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, reg, tel
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		sb.Write(sc.Bytes())
		sb.WriteByte('\n')
	}
	return resp, []byte(sb.String())
}

// checkJSONHeaders is the Content-Type regression guard for the plane's JSON
// endpoints: explicit media type, sniffing off, caching off.
func checkJSONHeaders(t *testing.T, resp *http.Response) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("%s: Content-Type = %q", resp.Request.URL.Path, ct)
	}
	if v := resp.Header.Get("X-Content-Type-Options"); v != "nosniff" {
		t.Errorf("%s: X-Content-Type-Options = %q", resp.Request.URL.Path, v)
	}
	if v := resp.Header.Get("Cache-Control"); v != "no-store" {
		t.Errorf("%s: Cache-Control = %q", resp.Request.URL.Path, v)
	}
}

func TestSessionsEndpoint(t *testing.T) {
	srv, _, _ := newTestPlane(t)
	resp, body := get(t, srv.URL+"/sessions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	checkJSONHeaders(t, resp)
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Service != "testsvc" || v.Tag != "t0" || len(v.Sessions) != 2 {
		t.Fatalf("view = %+v", v)
	}
	if v.Sessions[0].ID != 1 || v.Sessions[0].Benchmark != "gcc" {
		t.Fatalf("session 0 = %+v", v.Sessions[0])
	}
	if v.Sessions[1].Kind != "proxy" || v.Sessions[1].JournalBytes != 2048 ||
		v.Sessions[1].Backend != "127.0.0.1:9670" {
		t.Fatalf("session 1 = %+v", v.Sessions[1])
	}

	// ?sort= and ?limit= shape the listing.
	_, body = get(t, srv.URL+"/sessions?sort=missrate&limit=1")
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Sessions) != 1 || v.Sessions[0].Benchmark != "perl" {
		t.Fatalf("sorted+limited view = %+v", v.Sessions)
	}

	// /sessions/local serves the same registry here (no fan-in configured).
	resp, body = get(t, srv.URL+"/sessions/local")
	checkJSONHeaders(t, resp)
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Sessions) != 2 {
		t.Fatalf("local view has %d sessions", len(v.Sessions))
	}
}

func TestSessionDetailEndpoint(t *testing.T) {
	srv, _, _ := newTestPlane(t)
	resp, body := get(t, srv.URL+"/sessions/1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	checkJSONHeaders(t, resp)
	var d SessionDetail
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.ID != 1 || d.Benchmark != "gcc" || d.Tenant != "teamA" {
		t.Fatalf("detail = %+v", d.SessionSnapshot)
	}
	if len(d.Tables) != 1 || d.Tables[0].DeltaInserts != 50 {
		t.Fatalf("tables = %+v", d.Tables)
	}
	if len(d.Flight) != 1 || d.Flight[0].Session != 1 {
		t.Fatalf("flight spans = %+v", d.Flight)
	}

	// ?spans=0 suppresses the flight section.
	_, body = get(t, srv.URL+"/sessions/1?spans=0")
	d = SessionDetail{}
	json.Unmarshal(body, &d)
	if len(d.Flight) != 0 {
		t.Fatalf("spans=0 still returned %d spans", len(d.Flight))
	}

	if resp, _ := get(t, srv.URL+"/sessions/999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing id: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/sessions/notanumber"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", resp.StatusCode)
	}
}

// streamLines GETs a stream URL and returns its parsed NDJSON lines as raw
// maps keyed by type.
func streamLines(t *testing.T, url string) (*http.Response, []map[string]json.RawMessage, []string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]json.RawMessage
	var types []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		line = strings.TrimPrefix(line, "data: ")
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		lines = append(lines, m)
		var typ string
		json.Unmarshal(m["type"], &typ)
		types = append(types, typ)
	}
	return resp, lines, types
}

func TestSessionsStream(t *testing.T) {
	srv, reg, tel := newTestPlane(t)
	// Move a counter while the stream runs so a stats delta is observable
	// (the stream baselines the registry at start; pre-existing values are
	// not replayed).
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := tel.Counter("test_frames_total")
		for {
			select {
			case <-stop:
				return
			default:
				c.Add(1)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	resp, lines, types := streamLines(t, srv.URL+"/sessions/stream?ticks=2&interval=100ms")
	close(stop)
	<-done
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	// Two ticks over 2 sessions with telemetry attached:
	// (tick, session, session, stats) x2.
	want := []string{"tick", "session", "session", "stats", "tick", "session", "session", "stats"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("line types = %v, want %v", types, want)
	}

	var tick TickLine
	if err := json.Unmarshal(lines[0]["tick"], new(json.RawMessage)); err == nil {
		// tick fields live at top level, not nested — decode the whole line.
	}
	raw, _ := json.Marshal(lines[0])
	if err := json.Unmarshal(raw, &tick); err != nil {
		t.Fatal(err)
	}
	if tick.Service != "testsvc" || tick.Sessions != 2 {
		t.Fatalf("tick = %+v", tick)
	}

	// First appearance: delta equals cumulative totals.
	var sl SessionLine
	raw, _ = json.Marshal(lines[1])
	if err := json.Unmarshal(raw, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Delta.Records != sl.Session.Records || sl.Delta.Records == 0 {
		t.Fatalf("first-tick delta %+v vs session %+v", sl.Delta, sl.Session)
	}

	// Stats lines carry the counter movement per interval; across the two
	// ticks the background increments must show up.
	var statsTotal float64
	for i := range lines {
		if types[i] != "stats" {
			continue
		}
		var st StatsLine
		raw, _ := json.Marshal(lines[i])
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		statsTotal += st.Delta["test_frames_total"]
	}
	if statsTotal <= 0 {
		t.Fatal("stats deltas never reported the moving counter")
	}

	// Second tick: sessions are idle, so their deltas are zero.
	raw, _ = json.Marshal(lines[5])
	sl = SessionLine{}
	if err := json.Unmarshal(raw, &sl); err != nil {
		t.Fatal(err)
	}
	if sl.Delta.Records != 0 || sl.Delta.Frames != 0 {
		t.Fatalf("idle second-tick delta = %+v", sl.Delta)
	}
	_ = reg
}

func TestSessionsStreamSSE(t *testing.T) {
	srv, _, _ := newTestPlane(t)
	resp, err := http.Get(srv.URL + "/sessions/stream?ticks=1&sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	dataLines := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			dataLines++
		}
	}
	if dataLines < 2 { // at least the tick and one session line
		t.Fatalf("SSE framing produced %d data lines", dataLines)
	}
}

// TestEndpointContentTypes is the Content-Type audit across the whole
// -metrics mux as the daemons assemble it: every endpoint must declare an
// explicit media type, disable sniffing, and (for live data) disable caching.
func TestEndpointContentTypes(t *testing.T) {
	reg := NewRegistry(Options{Service: "ct"})
	s, _ := register(reg, &fakeConn{}, Meta{Kind: KindServe, Benchmark: "ct"})
	tel := telemetry.New()
	tel.Counter("ct_total").Add(1)
	rec := flight.NewRecorder(flight.Options{Service: "ct", Capacity: 4})

	msrv, maddr, err := telemetry.ServeMetrics("127.0.0.1:0", tel,
		func(mux *http.ServeMux) {
			Mount(mux, HTTPConfig{Local: reg, Telemetry: tel, Flight: rec})
			mux.Handle("/debug/flightrecorder", rec.Handler())
		})
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()

	cases := []struct {
		path string
		ct   string
	}{
		{"/metrics", "text/plain; version=0.0.4"},
		{"/vars", "application/json; charset=utf-8"},
		{"/debug/flightrecorder", "application/json; charset=utf-8"},
		{"/sessions", "application/json; charset=utf-8"},
		{"/sessions/local", "application/json; charset=utf-8"},
		{"/sessions/1", "application/json; charset=utf-8"},
		{"/sessions/stream?ticks=1", "application/x-ndjson"},
		{"/sessions/stream?ticks=1&sse=1", "text/event-stream"},
	}
	for _, c := range cases {
		resp, body := get(t, "http://"+maddr+c.path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d (%s)", c.path, resp.StatusCode, body)
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != c.ct {
			t.Errorf("%s: Content-Type = %q, want %q", c.path, got, c.ct)
		}
		if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
			t.Errorf("%s: X-Content-Type-Options = %q, want nosniff", c.path, got)
		}
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", c.path, got)
		}
	}
	reg.Unregister(s)
}

// TestStreamSurvivesSessionChurn streams while sessions register and
// unregister, asserting the feed never emits a negative-looking delta and
// keeps ticking.
func TestStreamSurvivesSessionChurn(t *testing.T) {
	reg := NewRegistry(Options{Service: "churn"})
	mux := http.NewServeMux()
	Mount(mux, HTTPConfig{Local: reg})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, err := register(reg, &fakeConn{}, Meta{Kind: KindServe, Benchmark: "churn"})
			if err != nil {
				return
			}
			s.FrameAcked(time.Now().UnixNano(), 10, 10, 1, 0)
			reg.Unregister(s)
		}
	}()
	defer close(stop)

	_, lines, types := streamLines(t, srv.URL+"/sessions/stream?ticks=3&interval=100ms")
	tickCount := 0
	for _, typ := range types {
		if typ == "tick" {
			tickCount++
		}
	}
	if tickCount != 3 {
		t.Fatalf("got %d ticks, want 3", tickCount)
	}
	for i, m := range lines {
		if types[i] != "session" {
			continue
		}
		var sl SessionLine
		raw, _ := json.Marshal(m)
		if err := json.Unmarshal(raw, &sl); err != nil {
			t.Fatal(err)
		}
		if sl.Delta.Records > sl.Session.Records {
			t.Fatalf("delta exceeds cumulative: %+v", sl)
		}
	}
}
