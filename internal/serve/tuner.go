package serve

import (
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/tuner"
)

// tunerFrameEnd is the act side of the adaptation plane, run at every frame
// boundary of a tuned session (worker goroutine, after the frame's ack is
// queued): retain the frame for replay, let the policy vote, and apply any
// decision as a hot swap.
//
// Swap-determinism contract: a swap replays the session's entire retained
// record stream through a freshly built target predictor and recomputes the
// Summary accounting from scratch, so after the swap the session is
// bit-identical — predictor state and executed/miss/noPred counts — to a
// session that ran the target predictor from its first record. Because
// decisions are made on record-counted windows at frame boundaries (never
// wall clock), a router replaying the journal onto a surviving backend
// drives that backend's tuner through the same decisions at the same
// boundaries: failover converges to the same Summary.
func (sess *session) tunerFrameEnd(chunk []byte, executed, misses int) {
	tun := sess.tun
	if !tun.Stopped() {
		// The just-processed frame joins the history before the vote: the
		// decision point is this frame's boundary, so a swap must replay
		// through it. Frames are copied into block-granular arena
		// allocations — a retained frame is written exactly once.
		if sess.histBytes+len(chunk) > tun.Policy().MaxHistoryBytes {
			tun.HistoryOverflow()
			sess.srv.cfg.Log.Warn("tuner history cap hit; session tuning disabled",
				"session", sess.id, "histBytes", sess.histBytes)
		} else {
			if len(sess.histArena) < len(chunk) {
				if len(chunk) > histBlockSize {
					// Oversize frame: a one-shot slice outside the pool.
					sess.histArena = make([]byte, len(chunk))
				} else {
					blk := sess.srv.histPool.Get().(*histBlock)
					sess.histBlocks = append(sess.histBlocks, blk)
					sess.histArena = blk[:]
				}
			}
			n := copy(sess.histArena, chunk)
			sess.hist = append(sess.hist, sess.histArena[:n:n])
			sess.histArena = sess.histArena[n:]
			sess.histBytes += n
		}
	}
	if d := tun.FrameEnd(executed, misses); d != nil {
		sess.applySwap(d)
	}
	if tun.Stopped() {
		// No further swaps can happen; recycle the history now.
		sess.dropHistory()
	}
}

// applySwap builds the decision's target predictor, replays the retained
// history through a fresh kernel on it (from-scratch accounting), and
// installs that kernel as the session's. On any failure the session keeps
// its current kernel and the tuner stops (SwapFailed) — never a half-applied
// swap.
func (sess *session) applySwap(d *tuner.Decision) {
	pred, err := d.Target.Build()
	if err != nil {
		// Unreachable in practice: policy targets are build-checked at
		// parse time. Guarded anyway — a swap must be all or nothing.
		sess.tun.SwapFailed()
		sess.srv.cfg.Log.Warn("tuner swap failed", "session", sess.id, "err", err)
		return
	}
	k := sim.NewKernel(pred, sim.Options{Warmup: sess.hello.Warmup})
	replayed := 0
	for _, frame := range sess.hist {
		n, err := runChunk(k, frame, sess.srv.cfg.MaxFrameRecords)
		if err != nil {
			sess.tun.SwapFailed()
			sess.srv.cfg.Log.Warn("tuner swap replay failed", "session", sess.id, "err", err)
			return
		}
		replayed += n
	}
	// The miss observer joins after the replay: the tuner has already
	// windowed these records, so their misses must not reach it twice.
	k.SetMissObserver(sess.tun)
	sess.kern = k
	sess.predName = pred.Name()
	sess.tun.SwapApplied(d, sess.predName, replayed)
	sess.updateTables()
	sess.srv.cfg.Log.Info("tuner swap", "session", sess.id, "predictor", sess.predName,
		"escalate", d.Escalate, "reason", d.Reason, "replayedRecords", replayed,
		"missRate", k.Result().MissRate())
}
