// Package serve is the network face of the reproduction: a long-running TCP
// service (cmd/ibpserved) that accepts streamed branch-trace frames,
// runs each session's frames, in order, through that session's own
// predictor on the session's connection goroutine, and streams back per-frame
// prediction outcomes with rolling miss-rate summaries — the paper's
// predictors packaged as a serving component instead of a batch simulator.
//
// The wire format reuses the IBPT v2 trace encoding end to end: every
// message is a length-framed, CRC32-checksummed frame (trace.FrameWriter /
// trace.FrameReader), and record payloads are the v2 chunk codec
// (trace.AppendRecords / trace.RecordIter), so a records frame carries
// exactly the bytes a v2 trace file section would. Malformed input is
// rejected with the trace package's corruption machinery and can never panic
// the server (the decode path is covered by internal/trace's fuzz harness).
//
// Protocol (version 1)
//
// A connection is one session. The client opens with the preamble "IBPS"
// plus a uvarint protocol version, then a Hello frame (JSON) that names the
// workload, optionally overrides the server's predictor configuration
// (internal/cli flag surface), and negotiates per-prediction event capture.
// The server answers with a HelloAck carrying the session id, the resolved
// predictor, and the session's limits (frame window, max payload bytes, max
// records per frame).
//
// The client then streams Records frames — each a monotonically increasing
// sequence number plus a record chunk — keeping at most Window frames
// unacknowledged. The server acknowledges every processed frame with an Ack
// frame carrying that frame's prediction outcome and the session's rolling
// totals; when event capture was negotiated, each Ack is preceded by an
// Events frame with the per-branch outcomes. A Done frame asks for the final
// Summary (JSON); a server-initiated drain delivers the same Summary with
// Drained set. Protocol violations and predictor failures arrive as Error
// frames before the connection closes.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/trace"
)

// Preamble opens every client connection, mirroring the trace file magic.
const Preamble = "IBPS"

// ProtocolVersion is the wire protocol version this package speaks.
const ProtocolVersion = 1

// Frame types. Client-to-server types sit in 0x10..0x1f, server-to-client in
// 0x20..0x2f; the v2 trace file's section types (1..3) stay reserved so a
// trace file can never be mistaken for a protocol stream.
const (
	FrameHello   = 0x10 // JSON Hello
	FrameRecords = 0x11 // uvarint seq + record chunk
	FrameDone    = 0x12 // empty; requests the final Summary

	FrameHelloAck = 0x20 // JSON HelloAck
	FrameAck      = 0x21 // binary Ack
	FrameEvents   = 0x22 // binary per-branch outcomes for one records frame
	FrameSummary  = 0x23 // JSON Summary; last frame of a clean session
	FrameError    = 0x24 // JSON WireError; last frame of a failed session
)

// Hello is the client's session-open request.
type Hello struct {
	// Benchmark labels the session (reported back in the Summary and the
	// server log); it does not have to name a workload benchmark.
	Benchmark string `json:"benchmark,omitempty"`
	// Predictor overrides the server's default predictor configuration for
	// this session. Nil keeps the server default.
	Predictor *cli.PredictorFlags `json:"predictor,omitempty"`
	// Warmup is the number of leading indirect branches excluded from the
	// session's miss accounting (they still train the predictor).
	Warmup int `json:"warmup,omitempty"`
	// Events requests per-branch outcome frames alongside every Ack.
	Events bool `json:"events,omitempty"`
	// Window requests a frame window; the server clamps it to its own
	// limit and reports the granted value in the HelloAck.
	Window int `json:"window,omitempty"`
	// TraceID, when set, correlates this session's frame spans across
	// processes (client → router → backend) in the flight recorder. It is
	// an optional JSON field, so old peers ignore it and the IBPT v2 byte
	// format is untouched; empty means the receiving tier mints its own.
	TraceID string `json:"traceId,omitempty"`
	// Tenant tags the session's owner for the session introspection plane
	// (grouping in /sessions and ibptop, future per-tenant quotas). Like
	// TraceID it rides the JSON handshake only.
	Tenant string `json:"tenant,omitempty"`
	// RouterSession is the router's proxy-session id, pinned into the
	// forwarded Hello by ibprouter so a backend session can be correlated
	// with its proxy leg in the cluster-wide /sessions fan-in. Zero on
	// direct (router-less) sessions.
	RouterSession uint64 `json:"routerSession,omitempty"`
	// TunerPolicy overrides the server's default tuning policy for this
	// session (tuner.ParsePolicy grammar). ibprouter pins its own
	// -tunerpolicy here so every backend — including a failover
	// replacement replaying the journal — runs the identical policy and
	// converges to the same swap decisions. Ignored when the backend runs
	// without -tuner; rejected (BadHello) when malformed.
	TunerPolicy string `json:"tunerPolicy,omitempty"`
}

// HelloAck is the server's session-open response.
type HelloAck struct {
	// Session is the server-assigned session id.
	Session uint64 `json:"session"`
	// Predictor is the resolved predictor's name.
	Predictor string `json:"predictor"`
	// Window is the granted frame window: the client must keep at most this
	// many records frames unacknowledged.
	Window int `json:"window"`
	// MaxFramePayload is the largest frame payload (bytes) the server will
	// accept on this session.
	MaxFramePayload int `json:"maxFramePayload"`
	// MaxFrameRecords is the largest record count a records frame may carry.
	MaxFrameRecords int `json:"maxFrameRecords"`
	// Events reports whether per-branch event frames were granted.
	Events bool `json:"events"`
	// TraceID echoes the session's effective trace ID (the client's, or one
	// the server minted when the Hello carried none and tracing is on).
	TraceID string `json:"traceId,omitempty"`
}

// Ack is the server's acknowledgement of one processed records frame. All
// counters follow the sim package's accounting: every dynamic indirect
// branch is predicted then resolved, warmup branches train but do not count,
// and a missing prediction is a misprediction.
type Ack struct {
	// Seq is the acknowledged frame's sequence number.
	Seq uint64
	// Records is the number of trace records in the frame (all kinds).
	Records int
	// Executed is the number of counted indirect branches in the frame.
	Executed int
	// Misses is the number of mispredictions in the frame.
	Misses int
	// TotalExecuted and TotalMisses are the session's rolling totals after
	// this frame, from which the rolling miss rate derives.
	TotalExecuted int
	TotalMisses   int
	// TotalNoPrediction is the rolling count of misses with no prediction.
	TotalNoPrediction int
}

// MissRate returns the session's rolling misprediction rate in percent as of
// this ack.
func (a Ack) MissRate() float64 {
	if a.TotalExecuted == 0 {
		return 0
	}
	return 100 * float64(a.TotalMisses) / float64(a.TotalExecuted)
}

// Summary is the server's final per-session report, delivered on Done or on
// a server-initiated drain.
type Summary struct {
	Session   uint64 `json:"session"`
	Benchmark string `json:"benchmark,omitempty"`
	Predictor string `json:"predictor"`
	// Frames and Records count the records frames and trace records the
	// session processed and acknowledged.
	Frames  int `json:"frames"`
	Records int `json:"records"`
	// Executed, Misses, NoPrediction and Warmup follow sim.Result.
	Executed     int     `json:"executed"`
	Misses       int     `json:"misses"`
	NoPrediction int     `json:"noPrediction"`
	Warmup       int     `json:"warmup"`
	MissRate     float64 `json:"missRate"`
	// Drained is set when a server drain (SIGTERM) ended the session before
	// the client sent Done; every acknowledged frame is still included in
	// the totals above.
	Drained bool `json:"drained,omitempty"`
	// Router is attached by the ibprouter cluster ingress when the session
	// was placed through it; sessions served directly leave it nil.
	Router *RouterInfo `json:"router,omitempty"`
}

// RouterInfo is the cluster router's addition to a Summary: where the
// session ended up and what the failover machinery did to keep it alive.
type RouterInfo struct {
	// Backend is the address of the backend that delivered the Summary.
	Backend string `json:"backend"`
	// Failovers counts mid-session backend replacements (each one a
	// journal replay onto a survivor).
	Failovers int `json:"failovers"`
	// ReplayedFrames counts records frames re-sent during those replays.
	ReplayedFrames int `json:"replayedFrames,omitempty"`
}

// WireError is the payload of a FrameError.
type WireError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

func (e *WireError) Error() string { return fmt.Sprintf("serve: %s: %s", e.Code, e.Msg) }

// Error codes.
const (
	CodeBadFrame  = "bad-frame"  // framing, checksum, or decode violation
	CodeBadHello  = "bad-hello"  // unusable session-open request
	CodeBadSeq    = "bad-seq"    // records frame out of order
	CodeOverLimit = "over-limit" // frame window exceeded (ibprouter)
	CodePredictor = "predictor"  // predictor construction or runtime failure
	CodeOverload  = "overload"   // server shed the session under load
)

// EventRec is one per-branch outcome in a FrameEvents payload. The wire
// carries only the sim-visible slice of the event — PC, Predicted, Actual,
// HasPred, Miss and Warmup — never the predictor's attribution detail.
type EventRec = ptrace.Event

// eventLog collects the session kernel's events for one records frame.
type eventLog []EventRec

// Record appends ev (sim.EventRecorder).
func (l *eventLog) Record(ev EventRec) { *l = append(*l, ev) }

const (
	evFlagHasPred = 1 << 0
	evFlagMiss    = 1 << 1
	evFlagWarmup  = 1 << 2
)

// appendEvents encodes a FrameEvents payload: uvarint seq, uvarint count,
// then per event zigzag word-deltas for PC/predicted/actual (delta state
// starts at zero, like a record chunk) plus a flags byte.
func appendEvents(buf []byte, seq uint64, evs []EventRec) []byte {
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(evs)))
	var prevPC, prevPred, prevAct uint32
	for _, ev := range evs {
		buf = binary.AppendVarint(buf, int64(int32(ev.PC-prevPC))/4)
		buf = binary.AppendVarint(buf, int64(int32(ev.Predicted-prevPred))/4)
		buf = binary.AppendVarint(buf, int64(int32(ev.Actual-prevAct))/4)
		var flags byte
		if ev.HasPred {
			flags |= evFlagHasPred
		}
		if ev.Miss {
			flags |= evFlagMiss
		}
		if ev.Warmup {
			flags |= evFlagWarmup
		}
		buf = append(buf, flags)
		prevPC, prevPred, prevAct = ev.PC, ev.Predicted, ev.Actual
	}
	return buf
}

// eventFields names an event's three word deltas for decode errors.
var eventFields = [3]string{"pc", "predicted", "actual"}

// decodeEvents decodes a FrameEvents payload into dst[:0], growing it only
// when the frame holds more events than it has room for, and returns the
// events holding the wire fields only. It walks the payload slice in place,
// like DecodeAck: the client decodes one events frame per records frame.
// max bounds the declared count.
func decodeEvents(dst []EventRec, payload []byte, max int) (seq uint64, evs []EventRec, err error) {
	seq, off := binary.Uvarint(payload)
	if off <= 0 {
		return 0, dst, fmt.Errorf("serve: events seq: %w", varintErr(off))
	}
	n, k := binary.Uvarint(payload[off:])
	if k <= 0 {
		return 0, dst, fmt.Errorf("serve: events count: %w", varintErr(k))
	}
	off += k
	if n > uint64(max) {
		return 0, dst, fmt.Errorf("serve: events frame declares %d events", n)
	}
	evs = slices.Grow(dst[:0], int(n))
	var prev [3]uint32 // pc, predicted, actual: delta state starts at zero
	for i := range int(n) {
		var w [3]uint32
		for j := range w {
			d, k := binary.Varint(payload[off:])
			if k <= 0 {
				return 0, evs, fmt.Errorf("serve: event %d %s: %w", i, eventFields[j], varintErr(k))
			}
			off += k
			w[j] = prev[j] + uint32(d*4)
		}
		if off == len(payload) {
			return 0, evs, fmt.Errorf("serve: event %d flags: %w", i, io.ErrUnexpectedEOF)
		}
		flags := payload[off]
		off++
		evs = append(evs, EventRec{
			PC:        w[0],
			Predicted: w[1],
			Actual:    w[2],
			Component: -1, // no attribution on the wire
			HasPred:   flags&evFlagHasPred != 0,
			Miss:      flags&evFlagMiss != 0,
			Warmup:    flags&evFlagWarmup != 0,
		})
		prev = w
	}
	if off != len(payload) {
		return 0, evs, fmt.Errorf("serve: %d trailing bytes in events frame", len(payload)-off)
	}
	return seq, evs, nil
}

// varintErr is the error behind a failed binary.Uvarint or binary.Varint:
// n == 0 ran out of bytes, n < 0 overflowed 64 bits.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("varint overflows 64 bits")
}

// ackPayloadMax is an Ack payload's encoded size bound: seven uvarints.
const ackPayloadMax = 7 * binary.MaxVarintLen64

// appendAck encodes an Ack payload as uvarints.
func appendAck(buf []byte, a Ack) []byte {
	buf = binary.AppendUvarint(buf, a.Seq)
	buf = binary.AppendUvarint(buf, uint64(a.Records))
	buf = binary.AppendUvarint(buf, uint64(a.Executed))
	buf = binary.AppendUvarint(buf, uint64(a.Misses))
	buf = binary.AppendUvarint(buf, uint64(a.TotalExecuted))
	buf = binary.AppendUvarint(buf, uint64(a.TotalMisses))
	buf = binary.AppendUvarint(buf, uint64(a.TotalNoPrediction))
	return buf
}

// DecodeAck decodes an Ack payload. It walks the slice directly (no reader
// allocation): the client decodes one ack per processed frame, so this sits
// on the streaming hot path.
func DecodeAck(payload []byte) (Ack, error) {
	var vals [7]uint64
	off := 0
	for i := range vals {
		v, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return Ack{}, fmt.Errorf("serve: ack field %d: %w", i, io.ErrUnexpectedEOF)
		}
		vals[i] = v
		off += n
	}
	if off != len(payload) {
		return Ack{}, fmt.Errorf("serve: %d trailing bytes in ack", len(payload)-off)
	}
	return Ack{
		Seq:               vals[0],
		Records:           int(vals[1]),
		Executed:          int(vals[2]),
		Misses:            int(vals[3]),
		TotalExecuted:     int(vals[4]),
		TotalMisses:       int(vals[5]),
		TotalNoPrediction: int(vals[6]),
	}, nil
}

// appendRecordsFrame encodes a FrameRecords payload: uvarint seq + chunk.
func appendRecordsFrame(buf []byte, seq uint64, recs trace.Trace) []byte {
	buf = binary.AppendUvarint(buf, seq)
	return trace.AppendRecords(buf, recs)
}

// SplitRecordsFrame peels the sequence number off a FrameRecords payload,
// checks it is want (one past the session's last records frame), and
// returns the record chunk that follows. The WireError is the session's
// verdict on ibpserved and ibprouter alike. The chunk itself is judged where
// it is predicted, by the in-place iteration that runs it.
func SplitRecordsFrame(payload []byte, want uint64) ([]byte, *WireError) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, &WireError{Code: CodeBadFrame, Msg: "records frame without seq"}
	}
	if seq != want {
		return nil, &WireError{Code: CodeBadSeq, Msg: fmt.Sprintf("frame seq %d, want %d", seq, want)}
	}
	return payload[n:], nil
}

// marshalJSON encodes v, panicking only on programmer error (all payload
// types marshal cleanly).
func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal %T: %v", v, err))
	}
	return b
}

// unmarshalPayload decodes a JSON payload, tolerating unknown fields so a
// newer peer may extend the control frames (forward compatibility).
func unmarshalPayload(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("serve: bad JSON payload: %w", err)
	}
	return nil
}
