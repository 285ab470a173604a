package cluster

import (
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// BackendState is a backend's position in the health state machine:
//
//	       probe ok                probe fail
//	Up ◄──────────── Suspect ◄──────────────── Up
//	 │                  │ FailThreshold consecutive fails
//	 │                  ▼
//	 │                Down ──── probe ok ────► Rejoining
//	 │                  ▲                         │
//	 │              probe fail                    │ RiseThreshold
//	 └────────────────────────────────────────────┘ consecutive oks
//
// Sessions are placed only on Up, Suspect, and Rejoining backends; a
// transition to Down kicks the backend's attached sessions into the
// journal-replay failover path.
type BackendState int32

const (
	StateUp BackendState = iota
	StateSuspect
	StateDown
	StateRejoining
)

func (s BackendState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateRejoining:
		return "rejoining"
	default:
		return "invalid"
	}
}

// backend is one ibpserved instance in the membership.
type backend struct {
	addr  string
	state atomic.Int32 // a BackendState; the zero value is StateUp

	// prober-owned consecutive-outcome counters.
	fails, rises int

	mu       sync.Mutex
	attached map[*proxySession]io.Closer // live sessions and their backend connections
}

// newBackend returns a member that starts optimistically Up: probes demote
// a dead one within FailThreshold intervals, and placement dials fail fast
// against it in the meantime.
func newBackend(addr string) *backend {
	return &backend{addr: addr, attached: make(map[*proxySession]io.Closer)}
}

func (b *backend) getState() BackendState { return BackendState(b.state.Load()) }

// placeable reports whether new sessions (or failovers) may land here.
func (b *backend) placeable() bool { return b.getState() != StateDown }

// setState moves the state machine, logging and counting the transition.
func (b *backend) setState(r *Router, to BackendState, reason string) {
	from := BackendState(b.state.Swap(int32(to)))
	if from == to {
		return
	}
	r.m.healthTransitions.Inc()
	r.updateBackendsUpGauge()
	r.log.Info("backend state change", "backend", b.addr, "from", from.String(), "to", to.String(), "reason", reason)
}

// attach registers a session's live backend connection so a Down transition
// can kick it into failover.
func (b *backend) attach(sess *proxySession, conn io.Closer) {
	b.mu.Lock()
	b.attached[sess] = conn
	b.mu.Unlock()
}

func (b *backend) detach(sess *proxySession) {
	b.mu.Lock()
	delete(b.attached, sess)
	b.mu.Unlock()
}

func (b *backend) sessionCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.attached)
}

// kickSessions severs attached sessions' backend connections, sending each
// one through the failover path.
func (b *backend) kickSessions() {
	b.mu.Lock()
	kicks := make([]io.Closer, 0, len(b.attached))
	for _, conn := range b.attached {
		kicks = append(kicks, conn)
	}
	b.mu.Unlock()
	for _, conn := range kicks {
		conn.Close()
	}
}

// noteSessionError is a session-level health signal: an I/O failure on a
// live session demotes an Up backend to Suspect immediately instead of
// waiting out a probe interval. Probes alone decide Down.
func (b *backend) noteSessionError(r *Router) {
	if b.state.CompareAndSwap(int32(StateUp), int32(StateSuspect)) {
		r.m.healthTransitions.Inc()
		r.updateBackendsUpGauge()
		r.log.Info("backend state change", "backend", b.addr, "from", "up", "to", "suspect", "reason", "session I/O error")
	}
}

// probeLoop actively health-checks b until the router closes: a TCP connect
// within ProbeTimeout counts as alive. Intervals carry ±10% jitter so a
// fleet of probers does not thunder in lockstep.
func (r *Router) probeLoop(b *backend) {
	defer r.probeWG.Done()
	for {
		d := r.cfg.ProbeInterval
		d = time.Duration(float64(d) * (0.9 + 0.2*rand.Float64()))
		select {
		case <-time.After(d):
		case <-r.ctx.Done():
			return
		}
		conn, err := net.DialTimeout("tcp", b.addr, r.cfg.ProbeTimeout)
		if err == nil {
			conn.Close()
		}
		r.m.probes.Inc()
		r.observeProbe(b, err)
	}
}

// observeProbe advances the health state machine on one probe outcome.
func (r *Router) observeProbe(b *backend, err error) {
	state := b.getState()
	if err != nil {
		r.m.probeFailures.Inc()
		b.fails++
		b.rises = 0
		switch {
		case state == StateDown:
			// stays down
		case b.fails >= r.cfg.FailThreshold:
			b.setState(r, StateDown, err.Error())
			// Sessions still attached to a dead backend are not going to
			// hear an EOF if the host vanished; kick them into failover now.
			b.kickSessions()
		case state == StateUp:
			b.setState(r, StateSuspect, err.Error())
		}
		return
	}
	b.fails = 0
	switch state {
	case StateSuspect:
		b.setState(r, StateUp, "probe ok")
	case StateDown:
		b.rises = 1
		b.setState(r, StateRejoining, "probe ok")
	case StateRejoining:
		b.rises++
		if b.rises >= r.cfg.RiseThreshold {
			b.setState(r, StateUp, "rise threshold reached")
		}
	}
}
