package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/tuner"
)

// FrontEnd is the connection front end ibpserved's Server and ibprouter's
// Router share: the accept loop, the preamble check, the Hello handshake
// resolved against one set of defaults, and the drain. The two embed one
// each and differ only in what Open does with an accepted session, so both
// turn away a bad handshake identically: a WireError frame for each
// rejection, a bare close for a wrong preamble.
type FrontEnd struct {
	cfg FrontEndConfig

	mu      sync.Mutex
	ln      net.Listener
	closing bool // guarded by mu: no new connections

	conns sync.WaitGroup // connection goroutines, and those Go started
}

// Limits bound a daemon's client side, the same way on ibpserved and
// ibprouter. ClientDefaults fills the zero ones.
type Limits struct {
	// Window caps the frame window a Hello may request (default 8).
	Window int
	// MaxFramePayload bounds a frame's payload bytes (default 1 MiB);
	// MaxFrameRecords bounds a records frame's record count (default 8192).
	MaxFramePayload int
	MaxFrameRecords int
	// ReadTimeout bounds the wait for the next client frame, the preamble
	// and Hello included; WriteTimeout bounds each flush to the client
	// (default 30s each).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// ClientDefaults fills the unset limits and a nil logger with the defaults
// ibpserved and ibprouter share. Each owner applies it while filling its
// own Config, which stays the one copy of these settings.
func ClientDefaults(l Limits, log *slog.Logger) (Limits, *slog.Logger) {
	if l.Window <= 0 {
		l.Window = 8
	}
	if l.MaxFramePayload <= 0 {
		l.MaxFramePayload = 1 << 20
	}
	if l.MaxFrameRecords <= 0 {
		l.MaxFrameRecords = 8192
	}
	if l.ReadTimeout <= 0 {
		l.ReadTimeout = 30 * time.Second
	}
	if l.WriteTimeout <= 0 {
		l.WriteTimeout = 30 * time.Second
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	return l, log
}

// FrontEndConfig parameterizes a FrontEnd. The owner applies its own
// defaults first (ClientDefaults among them): every field is used as given.
type FrontEndConfig struct {
	// Predictor is the default for a Hello without its own; Policy is the
	// tuner policy of a Hello without its own.
	Predictor cli.PredictorFlags
	Policy    tuner.Policy
	Limits
	// Pool backs the connection's frame reader, which Open inherits.
	Pool *trace.BufferPool
	// Flight mints a trace ID for a Hello without one; nil mints none.
	Flight *flight.Recorder
	Log    *slog.Logger

	// Sessions is the owner's live set. Shutdown drains it and a cut kills
	// what is left.
	Sessions *sessiontrack.Registry
	// Open takes over an accepted handshake on the connection's goroutine.
	// It owns conn from then on, and fr is positioned after the Hello.
	Open func(conn net.Conn, fr *trace.FrameReader, h Handshake)
	// OnCut runs when a stop gives up on draining (Close, or Shutdown's ctx
	// ending), before the live sessions are killed. OnStop runs once every
	// connection goroutine has exited. Both may run more than once.
	OnCut  func()
	OnStop func()
}

// Handshake is a client's Hello resolved against the front end's defaults.
type Handshake struct {
	Hello Hello
	// Predictor is the Hello's predictor or the default, validated; Pred is
	// built from it.
	Predictor cli.PredictorFlags
	Pred      core.Predictor
	// Policy is the Hello's tuner policy, parsed, or the default.
	Policy tuner.Policy
	// Window is the granted frame window: the Hello's request, clamped.
	Window int
	// TraceID is the Hello's trace ID, or one minted when tracing is on.
	TraceID string
}

// NewFrontEnd checks that the default predictor builds and returns an idle
// front end; Serve starts it.
func NewFrontEnd(cfg FrontEndConfig) (*FrontEnd, error) {
	if err := cfg.Predictor.Validate(); err != nil {
		return nil, fmt.Errorf("default predictor: %w", err)
	}
	if _, err := cfg.Predictor.Build(); err != nil {
		return nil, fmt.Errorf("default predictor: %w", err)
	}
	return &FrontEnd{cfg: cfg}, nil
}

// Sessions returns the live-session registry behind the /sessions
// introspection endpoints (sessiontrack.Mount).
func (fe *FrontEnd) Sessions() *sessiontrack.Registry { return fe.cfg.Sessions }

// AckHello encodes the HelloAck that opens session id on h: the granted
// window and events, the resolved predictor, the frame limits, and traceID
// as the echoed trace ID.
func (fe *FrontEnd) AckHello(h Handshake, id uint64, traceID string) []byte {
	return marshalJSON(HelloAck{
		Session:         id,
		Predictor:       h.Pred.Name(),
		Window:          h.Window,
		MaxFramePayload: fe.cfg.MaxFramePayload,
		MaxFrameRecords: fe.cfg.MaxFrameRecords,
		Events:          h.Hello.Events,
		TraceID:         traceID,
	})
}

// Addr returns the listener address ("" before Serve).
func (fe *FrontEnd) Addr() string {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	if fe.ln == nil {
		return ""
	}
	return fe.ln.Addr().String()
}

// ListenAndServe binds addr and serves until Shutdown/Close.
func (fe *FrontEnd) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return fe.Serve(ln)
}

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("serve: server closed")

// Serve accepts sessions on ln until Shutdown or Close, then returns
// ErrServerClosed.
func (fe *FrontEnd) Serve(ln net.Listener) error {
	fe.mu.Lock()
	fe.ln = ln
	if fe.closing {
		ln.Close() // stopped before it started
	}
	fe.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if fe.stopping() {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		// The closing check and the Add share the lock stopAccepting takes,
		// so no connection goroutine starts once a stop waits on conns.
		fe.mu.Lock()
		closing := fe.closing
		if !closing {
			fe.conns.Add(1)
		}
		fe.mu.Unlock()
		if closing {
			conn.Close()
			continue
		}
		go func() {
			defer fe.conns.Done()
			fe.handle(conn)
		}()
	}
}

func (fe *FrontEnd) stopping() bool {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.closing
}

// Go runs fn on a goroutine that Shutdown and Close wait for. Call it only
// from a goroutine they already wait for, such as Open's.
func (fe *FrontEnd) Go(fn func()) {
	fe.conns.Add(1)
	go func() {
		defer fe.conns.Done()
		fn()
	}()
}

// Shutdown drains: the listener stops accepting, the session registry
// refuses new sessions, and every live session is asked to drain and runs
// until its connection goroutines exit. If ctx expires first the remaining
// sessions are cut hard and ctx.Err() is returned.
func (fe *FrontEnd) Shutdown(ctx context.Context) error {
	live := fe.stopAccepting()
	for _, sess := range live {
		sess.Drain()
	}
	done := make(chan struct{})
	go func() {
		fe.conns.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		fe.cut(live)
		<-done
	}
	fe.cfg.OnStop()
	return err
}

// Close stops at once: live sessions are cut without summaries. Prefer
// Shutdown.
func (fe *FrontEnd) Close() error {
	fe.cut(fe.stopAccepting())
	fe.conns.Wait()
	fe.cfg.OnStop()
	return nil
}

// stopAccepting closes the listener and returns the live sessions the
// registry will ever have.
func (fe *FrontEnd) stopAccepting() []*sessiontrack.Session {
	fe.mu.Lock()
	fe.closing = true
	if fe.ln != nil {
		fe.ln.Close()
	}
	fe.mu.Unlock()
	return fe.cfg.Sessions.BeginDrain()
}

func (fe *FrontEnd) cut(live []*sessiontrack.Session) {
	fe.cfg.OnCut()
	for _, sess := range live {
		sess.Kill()
	}
}

// handle is a connection's goroutine up to the handshake: preamble, Hello,
// then Open or a rejection.
func (fe *FrontEnd) handle(conn net.Conn) {
	log := fe.cfg.Log
	conn.SetReadDeadline(time.Now().Add(fe.cfg.ReadTimeout))
	var pre [len(Preamble) + 1]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		log.Debug("preamble read failed", "err", err)
		conn.Close()
		return
	}
	if string(pre[:len(Preamble)]) != Preamble || pre[len(Preamble)] != ProtocolVersion {
		log.Debug("bad preamble", "bytes", fmt.Sprintf("%x", pre))
		conn.Close()
		return
	}
	fr := trace.NewPooledFrameReader(conn, fe.cfg.MaxFramePayload, fe.cfg.Pool)
	h, we := fe.handshake(fr)
	if we != nil {
		log.Debug("handshake rejected", "code", we.Code, "err", we.Msg)
		conn.SetWriteDeadline(time.Now().Add(fe.cfg.WriteTimeout))
		fw := trace.NewFrameWriter(conn)
		fw.WriteFrame(FrameError, marshalJSON(we))
		fw.Flush()
		conn.Close()
		return
	}
	fe.cfg.Open(conn, fr, h)
}

// handshake reads the Hello and resolves it, or says why it cannot.
func (fe *FrontEnd) handshake(fr *trace.FrameReader) (Handshake, *WireError) {
	badHello := func(msg string) (Handshake, *WireError) {
		return Handshake{}, &WireError{Code: CodeBadHello, Msg: msg}
	}
	f, err := fr.Next()
	if err != nil {
		return Handshake{}, &WireError{Code: CodeBadFrame, Msg: err.Error()}
	}
	defer f.Release() // borrowed payload; the decoded Hello outlives it
	if f.Type != FrameHello {
		return badHello("first frame must be Hello")
	}
	h := Handshake{Predictor: fe.cfg.Predictor, Policy: fe.cfg.Policy}
	if err := unmarshalPayload(f.Payload, &h.Hello); err != nil {
		return badHello(err.Error())
	}
	// A malformed per-session tuner policy is a handshake error, like a bad
	// predictor spec; checked even where nothing tunes, so the spec's
	// meaning never depends on daemon flags.
	if h.Hello.TunerPolicy != "" {
		if h.Policy, err = tuner.ParsePolicy(h.Hello.TunerPolicy); err != nil {
			return badHello(err.Error())
		}
	}
	if h.Hello.Predictor != nil {
		h.Predictor = *h.Hello.Predictor
	}
	if err := h.Predictor.Validate(); err != nil {
		return badHello(err.Error())
	}
	if h.Pred, err = h.Predictor.Build(); err != nil {
		return badHello(err.Error())
	}
	if h.Hello.Warmup < 0 {
		return badHello("negative warmup")
	}
	h.Window = h.Hello.Window
	if h.Window <= 0 || h.Window > fe.cfg.Window {
		h.Window = fe.cfg.Window
	}
	h.TraceID = h.Hello.TraceID
	if h.TraceID == "" && fe.cfg.Flight.Enabled() {
		h.TraceID = fe.cfg.Flight.NextTraceID()
	}
	return h, nil
}
