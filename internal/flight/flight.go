// Package flight is the frame-level distributed tracing layer: a span that
// rides alongside one records frame from the client's send through the
// router's journal and relay, the backend's shard queue and predictor, and
// back out the ack write — plus a bounded ring "flight recorder" that keeps
// the last N completed spans for the /debug/flightrecorder endpoint and
// ibpreport's cross-process timeline fusion.
//
// Design constraints, inherited from the telemetry layer (PRs 3-4):
//
//   - A span is a value, and nil is disabled. Tracer.Start returns the
//     span by value, so stamping allocates nothing; a nil *Recorder or nil
//     *Tracer yields spans whose Finish publishes nowhere. The serving
//     daemons stamp every frame whether tracing is on or off and derive
//     their frame histograms from the stamps, so the only cost of tracing
//     on is Finish's copy into the ring (TestSpanRecordZeroAllocs,
//     BenchmarkSpanFinish).
//   - No locks on the stamping path. A span is owned by exactly one
//     goroutine at a time and handed off with the frame it describes
//     (reader → shard queue → worker → writer in serve; reader → journal →
//     backend pump → writer in cluster), so hop stamps are plain stores —
//     the channel hand-offs are the happens-before edges. The only
//     synchronized step is the final publish into the ring.
//   - Wall-clock stamps. Hops are recorded as unix nanoseconds so spans
//     from different processes (router and backend) fuse onto one timeline;
//     NTP-level skew between hosts is visible but irrelevant on loopback,
//     and ordering within a process is exact.
//
// The trace ID itself travels in the Hello/HelloAck JSON control frames
// (which tolerate unknown fields by construction), so the IBPT v2 byte
// format of records and ack frames — and every bit-identical golden test —
// is untouched.
package flight

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Hop names one timestamped point on a frame's path. The enum is ordered
// client → router → backend → back, which is also the expected stamp order
// of a frame that crosses every tier.
type Hop uint8

const (
	// HopClientSend — ibpload wrote the records frame to its socket.
	HopClientSend Hop = iota
	// HopRouterRecv — ibprouter read the frame and journaled it.
	HopRouterRecv
	// HopRouterRelay — ibprouter first relayed the frame to a backend
	// (replays after failover keep the original stamp).
	HopRouterRelay
	// HopRouterAckRecv — ibprouter received the backend's ack.
	HopRouterAckRecv
	// HopRouterAckRelay — ibprouter flushed the ack to the client.
	HopRouterAckRelay
	// HopServerRecv — ibpserved read the frame off the wire.
	HopServerRecv
	// HopServerEnqueue — the frame entered its shard queue.
	HopServerEnqueue
	// HopServerDequeue — a shard worker picked the frame up.
	HopServerDequeue
	// HopServerPredict — the predictor finished the frame's records.
	HopServerPredict
	// HopServerAckWrite — the ack left in a flushed write batch.
	HopServerAckWrite
	// HopClientAck — ibpload received the ack.
	HopClientAck

	// NumHops sizes the per-span stamp array.
	NumHops
)

var hopNames = [NumHops]string{
	"client-send",
	"router-recv",
	"router-relay",
	"router-ack-recv",
	"router-ack-relay",
	"server-recv",
	"server-enqueue",
	"server-dequeue",
	"server-predict",
	"server-ack-write",
	"client-ack",
}

// String returns the hop's stable wire name (used in JSON dumps, slow-frame
// logs, and Perfetto event names).
func (h Hop) String() string {
	if h >= NumHops {
		return "unknown"
	}
	return hopNames[h]
}

// SpanRecord is one completed frame span: identity plus one unix-ns stamp
// per hop (0 = the frame never reached that hop in this process).
type SpanRecord struct {
	TraceID string
	Session uint64
	Seq     uint64
	Records int
	Hops    [NumHops]int64
}

// first returns the earliest non-zero stamp, 0 if none.
func (r *SpanRecord) first() int64 {
	for _, ns := range r.Hops {
		if ns != 0 {
			return ns
		}
	}
	return 0
}

// last returns the latest non-zero stamp, 0 if none.
func (r *SpanRecord) last() int64 {
	var max int64
	for _, ns := range r.Hops {
		if ns > max {
			max = ns
		}
	}
	return max
}

// Span is an in-progress frame span. It is NOT safe for concurrent use by
// design: ownership follows the frame through the pipeline, and each hop is
// stamped by the one goroutine holding the frame at that moment.
type Span struct {
	rec SpanRecord
	r   *Recorder
}

// StampAt records hop h at unix-ns time unixNS, a clock reading the caller
// took (one reading may serve a whole flushed batch).
func (s *Span) StampAt(h Hop, unixNS int64) { s.rec.Hops[h] = unixNS }

// Between returns the time from hop from to hop to.
func (s *Span) Between(from, to Hop) time.Duration {
	return time.Duration(s.rec.Hops[to] - s.rec.Hops[from])
}

// SetRecords annotates the span with the frame's record count.
func (s *Span) SetRecords(n int) { s.rec.Records = n }

// Finish copies the span into its recorder's ring and runs the slow-frame
// check; a span from the nil Tracer has no recorder, and Finish does
// nothing.
func (s *Span) Finish() { s.r.publish(&s.rec) }

// Tracer mints spans for one session. The nil Tracer is the disabled one.
type Tracer struct {
	r       *Recorder
	traceID string
	session uint64
}

// Start begins the span of frame seq. It allocates nothing; on the nil
// Tracer the span has no identity and no recorder.
func (t *Tracer) Start(seq uint64) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		rec: SpanRecord{TraceID: t.traceID, Session: t.session, Seq: seq},
		r:   t.r,
	}
}

// TraceID returns the tracer's trace ID ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Options configures a Recorder.
type Options struct {
	// Service names this process in dumps and fused timelines
	// ("ibpserved", "ibprouter", "ibpload").
	Service string
	// Capacity bounds the ring; <= 0 means DefaultCapacity.
	Capacity int
	// SLO, when > 0, logs frames whose first→last hop walltime exceeds it.
	SLO time.Duration
	// Log receives slow-frame reports; nil means slog.Default.
	Log *slog.Logger
}

// DefaultCapacity is the ring size when Options.Capacity is unset: enough
// for every frame of several large sessions without the dump getting silly.
const DefaultCapacity = 2048

// slowLogEvery is the minimum gap between slow-frame log lines — one report
// a second keeps a pathological run readable.
const slowLogEvery = time.Second

// Recorder is the bounded flight-recorder ring shared by every session of
// one process. The nil Recorder is the disabled recorder: Tracer returns
// nil and all other methods are no-ops.
type Recorder struct {
	service  string
	slo      int64 // ns; 0 disables slow-frame logging
	logEvery int64 // ns between slow-frame log lines
	log      *slog.Logger
	lastSlow atomic.Int64 // unix ns of the last slow-frame log line
	slowSeen atomic.Uint64
	total    atomic.Uint64
	seqID    atomic.Uint64 // trace-ID generator
	mu       sync.Mutex
	ring     []SpanRecord
	next     int
	wrapped  bool
}

// NewRecorder builds a recorder.
func NewRecorder(o Options) *Recorder {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	return &Recorder{
		service:  o.Service,
		slo:      o.SLO.Nanoseconds(),
		logEvery: slowLogEvery.Nanoseconds(),
		log:      o.Log,
		ring:     make([]SpanRecord, o.Capacity),
	}
}

// Enabled reports whether frames are being traced (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Tracer returns a span factory for one session, or nil when the recorder
// is nil (the zero-cost path).
func (r *Recorder) Tracer(traceID string, session uint64) *Tracer {
	if r == nil {
		return nil
	}
	return &Tracer{r: r, traceID: traceID, session: session}
}

// NextTraceID mints a process-unique trace ID for sessions that arrived
// without one ("" on nil). The prefix is the service name, so IDs minted by
// the router and a backend never collide.
func (r *Recorder) NextTraceID() string {
	if r == nil {
		return ""
	}
	n := r.seqID.Add(1)
	// Cheap manual formatting; this runs once per session, not per frame.
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return r.service + "-" + string(buf[i:])
}

// publish appends a finished span to the ring and applies the slow-frame
// SLO check. Called via Span.Finish; a no-op on the nil recorder.
func (r *Recorder) publish(rec *SpanRecord) {
	if r == nil {
		return
	}
	r.total.Add(1)
	r.mu.Lock()
	r.ring[r.next] = *rec
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
	if r.slo > 0 {
		r.checkSlow(rec)
	}
}

// checkSlow logs a hop breakdown for frames over the SLO, at most one line
// per logEvery window (a CAS on the last-log stamp keeps racing frames from
// stampeding the logger).
func (r *Recorder) checkSlow(rec *SpanRecord) {
	first, last := rec.first(), rec.last()
	if first == 0 || last-first < r.slo {
		return
	}
	r.slowSeen.Add(1)
	now := time.Now().UnixNano()
	prev := r.lastSlow.Load()
	if now-prev < r.logEvery || !r.lastSlow.CompareAndSwap(prev, now) {
		return
	}
	attrs := make([]any, 0, 2*NumHops+10)
	attrs = append(attrs,
		"traceId", rec.TraceID,
		"session", rec.Session,
		"seq", rec.Seq,
		"records", rec.Records,
		"totalMs", float64(last-first)/1e6,
	)
	prevNS := int64(0)
	for h := Hop(0); h < NumHops; h++ {
		ns := rec.Hops[h]
		if ns == 0 {
			continue
		}
		if prevNS != 0 {
			attrs = append(attrs, h.String()+"Ms", float64(ns-prevNS)/1e6)
		}
		prevNS = ns
	}
	r.log.Warn("slow frame over SLO", attrs...)
}

// Stats summarizes the recorder for run summaries.
type Stats struct {
	Service    string `json:"service"`
	Capacity   int    `json:"capacity"`
	Recorded   uint64 `json:"recorded"`
	SlowFrames uint64 `json:"slowFrames,omitempty"`
}

// Stats returns lifetime counts (zero value on nil).
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		Service:    r.service,
		Capacity:   len(r.ring),
		Recorded:   r.total.Load(),
		SlowFrames: r.slowSeen.Load(),
	}
}

// Spans returns the ring's contents oldest-first (nil on the nil recorder).
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wrapped {
		out := make([]SpanRecord, r.next)
		copy(out, r.ring[:r.next])
		return out
	}
	out := make([]SpanRecord, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}
