package cluster

import "github.com/oocsb/ibp/internal/telemetry"

// metrics is the router's telemetry surface, resolved once per Router
// against the process registry. Handles are nil (no-op) when telemetry is
// disabled, so the routing path updates them unconditionally.
type metrics struct {
	sessionsActive  *telemetry.Gauge   // router_sessions_active
	sessionsTotal   *telemetry.Counter // router_sessions_total
	sessionsDropped *telemetry.Counter // router_sessions_dropped_total

	placements     *telemetry.Counter // router_placements_total
	failovers      *telemetry.Counter // router_failovers_total
	replayedFrames *telemetry.Counter // router_replayed_frames_total
	replayLost     *telemetry.Counter // router_replay_lost_total

	frames      *telemetry.Counter // router_frames_total
	acksRelayed *telemetry.Counter // router_acks_relayed_total

	journalBytes   *telemetry.Gauge   // router_journal_bytes
	journalEvicted *telemetry.Counter // router_journal_evicted_frames_total

	healthTransitions *telemetry.Counter // router_health_transitions_total
	backendsUp        *telemetry.Gauge   // router_backends_up
	probes            *telemetry.Counter // router_probes_total
	probeFailures     *telemetry.Counter // router_probe_failures_total
	dials             *telemetry.Counter // router_backend_dials_total
	dialFailures      *telemetry.Counter // router_backend_dial_failures_total

	// Hot-path latency histograms, fed once per frame from its stamps,
	// with tracing on or off.
	frameLatency *telemetry.Histogram // router_frame_latency: client recv → ack relayed
	backendRTT   *telemetry.Histogram // router_backend_rtt: relay → backend ack
}

// newMetrics resolves the handles against r (nil handles when r is nil).
func newMetrics(r *telemetry.Registry) *metrics {
	return &metrics{
		sessionsActive:  r.Gauge("router_sessions_active"),
		sessionsTotal:   r.Counter("router_sessions_total"),
		sessionsDropped: r.Counter("router_sessions_dropped_total"),

		placements:     r.Counter("router_placements_total"),
		failovers:      r.Counter("router_failovers_total"),
		replayedFrames: r.Counter("router_replayed_frames_total"),
		replayLost:     r.Counter("router_replay_lost_total"),

		frames:      r.Counter("router_frames_total"),
		acksRelayed: r.Counter("router_acks_relayed_total"),

		journalBytes:   r.Gauge("router_journal_bytes"),
		journalEvicted: r.Counter("router_journal_evicted_frames_total"),

		healthTransitions: r.Counter("router_health_transitions_total"),
		backendsUp:        r.Gauge("router_backends_up"),
		probes:            r.Counter("router_probes_total"),
		probeFailures:     r.Counter("router_probe_failures_total"),
		dials:             r.Counter("router_backend_dials_total"),
		dialFailures:      r.Counter("router_backend_dial_failures_total"),

		frameLatency: r.Histogram("router_frame_latency"),
		backendRTT:   r.Histogram("router_backend_rtt"),
	}
}
