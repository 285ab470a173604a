package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHTTPEndpointsUnderEnableDisableToggle hammers /metrics and /vars
// while other goroutines flip the process-wide registry on and off and
// write metrics through whatever Default returns at that instant. Run with
// -race (CI does): the point is that serving, toggling, and instrumenting
// are safe to interleave, and that readers always get a parseable response
// whichever side of a toggle they land on.
func TestHTTPEndpointsUnderEnableDisableToggle(t *testing.T) {
	r := New()
	srv, addr, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer Disable() // leave the process-wide state clean for other tests

	const (
		togglers = 2
		writers  = 4
		readers  = 4
		rounds   = 200
	)
	var wg sync.WaitGroup
	for i := 0; i < togglers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				if (n+i)%2 == 0 {
					Enable(r)
				} else {
					Disable()
				}
			}
		}(i)
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				// Default may be r or nil mid-toggle; both must be safe.
				d := Default()
				d.Counter(fmt.Sprintf("toggle_writes_%d_total", i)).Inc()
				d.Gauge("toggle_gauge").Set(float64(n))
			}
		}(i)
	}
	errs := make(chan string, readers*2*rounds)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds/10; n++ {
				for _, path := range []string{"/metrics", "/metrics?format=json", "/vars"} {
					code, body := get(t, "http://"+addr+path)
					if code != http.StatusOK {
						errs <- fmt.Sprintf("%s returned %d", path, code)
						continue
					}
					if strings.Contains(path, "json") || path == "/vars" {
						var snap map[string]float64
						if err := json.Unmarshal(body, &snap); err != nil {
							errs <- fmt.Sprintf("%s unparseable: %v", path, err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// After the dust settles, writes that landed while enabled are visible.
	Enable(r)
	Default().Counter("toggle_final_total").Inc()
	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "toggle_final_total 1") {
		t.Errorf("final counter missing from /metrics (code %d):\n%s", code, body)
	}
}

// TestVarsMatchesSnapshot pins /vars to the JSON snapshot of the served
// registry, including the histogram's _count/_ns flattening.
func TestVarsMatchesSnapshot(t *testing.T) {
	r := New()
	r.Counter("reqs_total").Add(3)
	r.Histogram("step").Observe(1500 * time.Nanosecond)
	srv, addr, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, body := get(t, "http://"+addr+"/vars")
	var snap map[string]float64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["reqs_total"] != 3 || snap["step_count"] != 1 || snap["step_ns"] != 1500 {
		t.Errorf("snapshot mismatch: %v", snap)
	}
}
