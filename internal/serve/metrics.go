package serve

import "github.com/oocsb/ibp/internal/telemetry"

// metrics is the serve layer's telemetry surface, resolved once per Server
// against the process registry. Handles are nil (no-op) when telemetry is
// disabled, so the serving path updates them unconditionally.
type metrics struct {
	sessionsActive  *telemetry.Gauge   // serve_sessions_active
	sessionsTotal   *telemetry.Counter // serve_sessions_total
	sessionsDropped *telemetry.Counter // serve_sessions_dropped_total
	drains          *telemetry.Counter // serve_drains_total
	frames          *telemetry.Counter // serve_frames_total
	records         *telemetry.Counter // serve_records_total
	acks            *telemetry.Counter // serve_acks_total
	misses          *telemetry.Counter // serve_misses_total
	panics          *telemetry.Counter // serve_panics_total
	poolHits        *telemetry.Counter // serve_pool_hits
	poolMisses      *telemetry.Counter // serve_pool_misses
	ackBatchSize    *telemetry.Gauge   // serve_ack_batch_size

	// Hot-path latency histograms (log-bucketed, quantile-bearing); one
	// Observe per frame or flush, zero allocations either way.
	frameLatency *telemetry.Histogram // serve_frame_latency: read → ack queued
	queueWait    *telemetry.Histogram // serve_frame_queue_wait: read → predictor slot taken
	predictTime  *telemetry.Histogram // serve_frame_predict: predictor walk per frame
	ackFlush     *telemetry.Histogram // serve_ack_flush: one vectored session flush
}

// newMetrics resolves the handles against r (nil handles when r is nil).
func newMetrics(r *telemetry.Registry) *metrics {
	return &metrics{
		sessionsActive:  r.Gauge("serve_sessions_active"),
		sessionsTotal:   r.Counter("serve_sessions_total"),
		sessionsDropped: r.Counter("serve_sessions_dropped_total"),
		drains:          r.Counter("serve_drains_total"),
		frames:          r.Counter("serve_frames_total"),
		records:         r.Counter("serve_records_total"),
		acks:            r.Counter("serve_acks_total"),
		misses:          r.Counter("serve_misses_total"),
		panics:          r.Counter("serve_panics_total"),
		poolHits:        r.Counter("serve_pool_hits"),
		poolMisses:      r.Counter("serve_pool_misses"),
		ackBatchSize:    r.Gauge("serve_ack_batch_size"),
		frameLatency:    r.Histogram("serve_frame_latency"),
		queueWait:       r.Histogram("serve_frame_queue_wait"),
		predictTime:     r.Histogram("serve_frame_predict"),
		ackFlush:        r.Histogram("serve_ack_flush"),
	}
}
