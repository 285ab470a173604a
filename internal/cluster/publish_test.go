package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/telemetry"
)

// TestFramePublishedOnce runs one direct and one routed session, with
// tracing off and on, and checks that each daemon publishes every records
// frame exactly once: each frame histogram counts as many frames as the
// daemon's frames counter, and a recorder holds one span per frame with the
// daemon's hops stamped in hop order.
func TestFramePublishedOnce(t *testing.T) {
	const frame = 256
	tr := suiteTrace(t, "gcc", 2000)
	serveHops := []flight.Hop{flight.HopServerRecv, flight.HopServerEnqueue,
		flight.HopServerDequeue, flight.HopServerPredict, flight.HopServerAckWrite}
	routerHops := []flight.Hop{flight.HopRouterRecv, flight.HopRouterRelay,
		flight.HopRouterAckRecv, flight.HopRouterAckRelay}
	for _, traced := range []bool{false, true} {
		for _, routed := range []bool{false, true} {
			t.Run(fmt.Sprintf("traced=%v/routed=%v", traced, routed), func(t *testing.T) {
				reg := telemetry.Enable(nil)
				t.Cleanup(telemetry.Disable)
				var serveRec, routerRec *flight.Recorder
				if traced {
					serveRec = flight.NewRecorder(flight.Options{Service: "ibpserved"})
					routerRec = flight.NewRecorder(flight.Options{Service: "ibprouter"})
				}
				srv, err := serve.New(serve.Config{Predictor: defaultFlags(), Shards: 2, Flight: serveRec})
				if err != nil {
					t.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go srv.Serve(ln)
				t.Cleanup(func() { srv.Close() })
				addr := ln.Addr().String()
				want := map[string][]string{
					"serve_frames_total": {"serve_frame_latency_count", "serve_frame_queue_wait_count", "serve_frame_predict_count"},
				}
				if routed {
					_, addr = startRouter(t, []string{addr}, func(c *Config) { c.Flight = routerRec })
					want["router_frames_total"] = []string{"router_frame_latency_count", "router_backend_rtt_count"}
				}

				c, err := serve.Dial(addr, serve.Hello{Benchmark: "gcc"}, serve.DialOptions{Timeout: 10 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				sum, err := c.Stream(tr, frame, nil)
				if err != nil {
					t.Fatal(err)
				}
				frames := float64(sum.Frames)

				// Publication follows the flush of each ack, which may
				// finish after the client has read the Summary.
				published := func(snap telemetry.Snapshot) bool {
					for total, hists := range want {
						if snap[total] != frames {
							return false
						}
						for _, h := range hists {
							if snap[h] != frames {
								return false
							}
						}
					}
					return true
				}
				snap := reg.Snapshot()
				for deadline := time.Now().Add(5 * time.Second); !published(snap) && time.Now().Before(deadline); {
					time.Sleep(5 * time.Millisecond)
					snap = reg.Snapshot()
				}
				for total, hists := range want {
					if snap[total] != frames {
						t.Errorf("%s = %v, want %v", total, snap[total], frames)
					}
					for _, h := range hists {
						if snap[h] != snap[total] {
							t.Errorf("%s = %v, want %s = %v", h, snap[h], total, snap[total])
						}
					}
				}
				if traced {
					checkSpans(t, serveRec, sum.Frames, serveHops)
					if routed {
						checkSpans(t, routerRec, sum.Frames, routerHops)
					}
				}
			})
		}
	}
}

// checkSpans requires rec to hold exactly one span for each of frames
// seqs, with hops, and only hops, stamped in order.
func checkSpans(t *testing.T, rec *flight.Recorder, frames int, hops []flight.Hop) {
	t.Helper()
	service := rec.Stats().Service
	spans := rec.Spans()
	if len(spans) != frames {
		t.Errorf("%s recorder holds %d spans, want one per frame (%d)", service, len(spans), frames)
	}
	seen := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		if seen[sp.Seq] || sp.Seq < 1 || sp.Seq > uint64(frames) {
			t.Errorf("%s span seq %d duplicated or out of range 1..%d", service, sp.Seq, frames)
		}
		seen[sp.Seq] = true
		var stamped int
		for _, ns := range sp.Hops {
			if ns != 0 {
				stamped++
			}
		}
		prev := int64(0)
		for _, h := range hops {
			ns := sp.Hops[h]
			if ns == 0 || ns < prev {
				t.Errorf("%s span %d: hop %s at %d after %d", service, sp.Seq, h, ns, prev)
			}
			prev = ns
		}
		if stamped != len(hops) {
			t.Errorf("%s span %d stamps %d hops, want %d: %v", service, sp.Seq, stamped, len(hops), sp.Hops)
		}
	}
}
