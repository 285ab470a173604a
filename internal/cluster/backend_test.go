package cluster

import (
	"errors"
	"log/slog"
	"testing"

	"github.com/oocsb/ibp/internal/telemetry"
)

// countingCloser stands in for an attached session's backend connection and
// counts the kicks that close it.
type countingCloser struct{ closes int }

func (c *countingCloser) Close() error { c.closes++; return nil }

// TestHealthProbeSequences maps probe outcomes to backend health: Down after
// FailThreshold consecutive failed probes, kicking the attached sessions on
// that transition only, and Up again on the next probe that connects.
func TestHealthProbeSequences(t *testing.T) {
	const failThreshold = 3
	cases := []struct {
		probes string // one probe each: '+' connects, '-' fails
		states string // health after each probe: 'U' up, 'D' down
		kicks  int    // closes of the attached session's backend connection
	}{
		{"+++", "UUU", 0},
		{"--", "UU", 0},
		{"---", "UUD", 1},
		{"------", "UUDDDD", 1},
		{"--+--+--", "UUUUUUUU", 0},
		{"---+", "UUDU", 1},
		{"---+--+", "UUDUUUU", 1},
		{"---+---", "UUDUUUD", 2},
	}
	for _, tc := range cases {
		t.Run(tc.probes, func(t *testing.T) {
			reg := telemetry.New()
			b := newBackend("127.0.0.1:1")
			r := &Router{
				cfg:      Config{FailThreshold: failThreshold},
				m:        newMetrics(reg),
				log:      slog.New(slog.DiscardHandler),
				backends: []*backend{b},
			}
			r.updateBackendsUpGauge() // as New does
			conn := &countingCloser{}
			b.attach(&proxySession{}, conn)
			transitions := 0
			for i, p := range tc.probes {
				var err error
				if p == '-' {
					err = errors.New("connection refused")
				}
				before := b.getState()
				r.observeProbe(b, err)
				want := StateUp
				if tc.states[i] == 'D' {
					want = StateDown
				}
				if got := b.getState(); got != want {
					t.Fatalf("after probe %d (%c): state %v, want %v", i+1, p, got, want)
				}
				if b.getState() != before {
					transitions++
				}
				up := 0.0
				if want == StateUp {
					up = 1
				}
				if got := reg.Gauge("router_backends_up").Load(); got != up {
					t.Fatalf("after probe %d: router_backends_up %v, want %v", i+1, got, up)
				}
			}
			if conn.closes != tc.kicks {
				t.Errorf("attached session kicked %d times, want %d", conn.closes, tc.kicks)
			}
			if got := reg.Counter("router_health_transitions_total").Load(); got != uint64(transitions) {
				t.Errorf("router_health_transitions_total %d, want %d", got, transitions)
			}
		})
	}
}
