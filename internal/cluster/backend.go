package cluster

import (
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// BackendState is a backend's health. A backend is Up until FailThreshold
// consecutive probes fail; the transition to Down kicks its attached
// sessions into the journal-replay failover path, since a vanished host
// sends no EOF. The next probe that connects brings it back Up. Sessions
// are placed only on Up backends.
type BackendState int32

const (
	StateUp BackendState = iota
	StateDown
)

func (s BackendState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	default:
		return "invalid"
	}
}

// backend is one ibpserved instance in the membership.
type backend struct {
	addr  string
	state atomic.Int32 // a BackendState; the zero value is StateUp

	fails int // prober-owned: consecutive failed probes

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
func (b *backend) placeable() bool { return b.getState() == StateUp }

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

// observeProbe moves b's health on one probe outcome.
func (r *Router) observeProbe(b *backend, err error) {
	if err == nil {
		b.fails = 0
		b.setState(r, StateUp, "probe ok")
		return
	}
	r.m.probeFailures.Inc()
	b.fails++
	if b.fails >= r.cfg.FailThreshold && b.getState() == StateUp {
		b.setState(r, StateDown, err.Error())
		// Sessions still attached to a dead backend are not going to hear
		// an EOF if the host vanished; kick them into failover now.
		b.kickSessions()
	}
}
