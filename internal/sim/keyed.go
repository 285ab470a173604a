package sim

import (
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/trace"
)

// The batched engine splits the two-level predictor at its two levels
// (§3.2, Figure 3). A sweep's lanes mostly differ in the second level, the
// target table, while many share the first, the path history: for a keyed
// predictor (core.Keyed) that history and its keys are a pure function of
// the indirect-branch stream. So the engine computes each distinct history's
// keys once per block, on a tape, and a keyed lane runs only its table step
// over the tapes it reads. Every other lane runs Kernel.Run.
//
// Keyed lanes never read the trace: each block's indirect branches are
// pulled out once, and the tapes and lanes walk those, skipping the
// conditionals (95% of a full trace) once per block instead of once per
// tape and once per lane.

// tape is one block of table keys for every lane table that shares a
// history spec and started the call with equal register contents.
type tape struct {
	spec history.Spec
	// reg is the shared history, advanced block by block; members are
	// the lane registers it stands for, written back when the call ends.
	reg     *history.Register
	members []*history.Register
	// keys[j] is the key of the block's j-th indirect branch under the
	// pre-branch history. Its length stays one block, so lanes hold it
	// across blocks.
	keys    []uint64
	scratch []uint32
	// tracked is whether reg maintains spec's pattern on push; untracked
	// layouts (PingPong) reassemble it per branch, as Spec.Key does.
	tracked bool
}

// fill computes the keys of one block's indirect branches and advances the
// history over them, as each member's predictor would: a branch is keyed
// under the pre-branch history, then pushes its target.
func (t *tape) fill(pcs, targets []uint32) {
	keys := t.keys[:len(pcs)]
	for j, pc := range pcs {
		pat := t.reg.TrackedPattern()
		if !t.tracked {
			pat = t.spec.Pattern(t.reg, t.scratch)
		}
		keys[j] = t.spec.Fold(pat, pc)
		t.reg.Push(targets[j])
	}
}

// tapeSet holds the tapes of one batched call and the current block's
// indirect branches. Nothing outlives the call.
type tapeSet struct {
	tapes        []*tape
	size         int      // keys per tape: one block, or the whole trace when shorter
	pcs, targets []uint32 // the block's indirect branches, in trace order
}

// join returns the tape for one lane table: the tape with the same spec
// whose register starts with the same contents, or a new one.
func (s *tapeSet) join(h core.TableHistory) *tape {
	for _, t := range s.tapes {
		if t.spec == h.Spec && t.reg.Equal(h.Reg) {
			t.members = append(t.members, h.Reg)
			return t
		}
	}
	reg := history.NewRegister(h.Reg.Depth())
	reg.Track(h.Spec)
	reg.CopyFrom(h.Reg)
	t := &tape{
		spec:    h.Spec,
		reg:     reg,
		members: []*history.Register{h.Reg},
		keys:    make([]uint64, s.size),
		scratch: make([]uint32, 0, reg.Depth()),
		tracked: reg.Tracks(h.Spec),
	}
	if s.tapes == nil {
		s.pcs, s.targets = make([]uint32, 0, s.size), make([]uint32, 0, s.size)
	}
	s.tapes = append(s.tapes, t)
	return t
}

// joinAll returns the key tapes for a predictor's tables, in table order.
func (s *tapeSet) joinAll(hs []core.TableHistory) [][]uint64 {
	out := make([][]uint64, len(hs))
	for i, h := range hs {
		out[i] = s.join(h).keys
	}
	return out
}

// fill pulls one block's indirect branches out and advances every tape over
// them.
func (s *tapeSet) fill(block []trace.Record) {
	if len(s.tapes) == 0 {
		return
	}
	s.pcs, s.targets = s.pcs[:0], s.targets[:0]
	for _, r := range block {
		if r.Kind.Indirect() {
			s.pcs = append(s.pcs, r.PC)
			s.targets = append(s.targets, r.Target)
		}
	}
	for _, t := range s.tapes {
		t.fill(s.pcs, s.targets)
	}
}

// writeBack copies every tape's history into the registers it stands for,
// so each keyed predictor holds exactly the history Predict and Update
// would have left.
func (s *tapeSet) writeBack() {
	for _, t := range s.tapes {
		for _, m := range t.members {
			m.CopyFrom(t.reg)
		}
	}
}

// keyedLane is the table step of a lane whose predictor, and shadow if it
// has one, are keyed.
type keyedLane struct {
	set           *tapeSet
	p, shadow     core.Keyed
	tapes, stapes [][]uint64 // the keys of each table of p and of shadow
	keys, skeys   []uint64   // one branch's keys for p and for shadow
}

// keyLanes gives a keyed step to every lane that can take one and returns
// the tapes they read. A lane runs keyed when its predictor and its shadow
// (if any) are keyed and it asks for nothing only Kernel.Run provides: an
// event sink, per-site stats or flushes.
func keyLanes(lanes []lane, ps []core.Predictor, opts []Options, size int) *tapeSet {
	s := &tapeSet{size: size}
	var hs, shs []core.TableHistory
	for i := range lanes {
		o := opts[i]
		if o.Events != nil || o.Sites || o.FlushEvery > 0 {
			continue
		}
		kp, ok := ps[i].(core.Keyed)
		if !ok {
			continue
		}
		if hs, ok = kp.Histories(hs[:0]); !ok {
			continue
		}
		var ks core.Keyed
		if o.Shadow != nil {
			if ks, ok = o.Shadow.(core.Keyed); !ok {
				continue
			}
			if shs, ok = ks.Histories(shs[:0]); !ok {
				continue
			}
		}
		kl := &keyedLane{set: s, p: kp, tapes: s.joinAll(hs), keys: make([]uint64, len(hs))}
		if ks != nil {
			kl.shadow, kl.stapes, kl.skeys = ks, s.joinAll(shs), make([]uint64, len(shs))
		}
		lanes[i].keyed = kl
	}
	return s
}

// run is Kernel.Run for a keyed lane over the block its tapes were just
// filled for: the tables step with the tapes' keys, and every indirect
// branch is counted through the same Result.account.
func (kl *keyedLane) run(k *Kernel) {
	seen, res := k.seen, k.res
	p, tapes, keys := kl.p, kl.tapes, kl.keys
	for j, target := range kl.set.targets {
		for i, t := range tapes {
			keys[i] = t[j]
		}
		pred, ok := p.StepKeyed(keys, target)
		var shadowCorrect bool
		if kl.shadow != nil {
			for i, t := range kl.stapes {
				kl.skeys[i] = t[j]
			}
			st, sok := kl.shadow.StepKeyed(kl.skeys, target)
			shadowCorrect = sok && st == target
		}
		seen++
		res.account(seen, k.warmup, pred, ok, target, shadowCorrect)
	}
	k.seen, k.res = seen, res
}
