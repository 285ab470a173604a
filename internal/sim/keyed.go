package sim

import (
	"fmt"
	"reflect"
	"runtime/debug"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/trace"
)

// The batched engine splits the two-level predictor at its two levels
// (§3.2, Figure 3) and shares both across lanes. A keyed table's keys are a
// pure function of the indirect-branch stream, so the engine computes each
// distinct history's keys once per branch, on a key tape. A hybrid's
// components train on every branch whatever the vote picks (§6), so a
// table's contents depend only on its configuration and the trace: lanes
// may read one table instance — as their predictor, as a hybrid component,
// or as a shadow — and the engine steps each distinct table once per
// branch, writing its answers to an answer tape. A keyed lane only
// accounts from tapes: a one-table lane reads its table's answers, a hybrid
// votes over its components' through core.Vote, and a shadow is one more
// tape. A tape holds each branch's core.Answer: the rank the vote compares,
// and whether the table predicted the resolved target. Every other lane
// runs Kernel.Run.
//
// Keyed tables never read the trace: each block's indirect branches are
// pulled out once, and the tapes walk those, skipping the conditionals (95%
// of a full trace) once per block instead of once per table. They walk them
// in runs of tapeLen branches: every table steps over a run, then every
// keyed lane accounts for it, so the answers a lane reads are still in the
// core's cache.

// tapeLen is how many branches a tape holds: one run. A run's key tapes
// (8 B a branch) and answer tapes (2 B) for 16 tables of 16 specs take 320
// KiB, well within a core's L2 cache.
const tapeLen = 2048

// keyTape is one run of table keys for every table that shares a history
// spec and started the call with equal register contents.
type keyTape struct {
	spec history.Spec
	// reg is the shared history, advanced run by run; members are
	// the table registers it stands for, written back when the call ends.
	reg     *history.Register
	members []*history.Register
	// keys[j] is the key of the run's j-th indirect branch under the
	// pre-branch history.
	keys    []uint64
	scratch []uint32
}

// fill computes the keys of one run's indirect branches and advances the
// history over them, as each member's predictor would: a branch is keyed
// under the pre-branch history, then pushes its target.
func (t *keyTape) fill(pcs, targets []uint32) {
	t.reg.KeyRun(t.spec, pcs, targets, t.keys, t.scratch)
}

// tableTape is one distinct keyed table of a call and its answers to the
// current run's branches.
type tableTape struct {
	table core.KeyedTable
	keys  *keyTape
	out   []core.Answer
	// err is the table's panic. The table steps no more, and every lane
	// that reads it dies with it.
	err error
}

// step runs the table over the run's branches, converting a panic into
// err: one deferred frame per table and run keeps isolation off the
// per-branch path.
func (t *tableTape) step(targets []uint32) {
	defer func() {
		if r := recover(); r != nil {
			t.err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	n := len(targets)
	t.table.StepKeyed(t.keys.keys[:n], targets, t.out[:n])
}

// tapeSet holds the key and answer tapes of one batched call and the
// current block's indirect branches. Nothing outlives the call.
type tapeSet struct {
	keys         []*keyTape
	tables       []*tableTape
	byTable      map[core.KeyedTable]*tableTape
	size         int      // branches per tape: tapeLen, or the whole trace when shorter
	pcs, targets []uint32 // the block's indirect branches, in trace order
}

// join returns the tape of one table, creating it, and its key tape, on the
// table's first appearance in the call.
func (s *tapeSet) join(t core.KeyedTable) *tableTape {
	if tt := s.byTable[t]; tt != nil {
		return tt
	}
	h, _ := t.KeyHistory()
	tt := &tableTape{table: t, keys: s.joinKeys(h), out: make([]core.Answer, s.size)}
	s.byTable[t] = tt
	s.tables = append(s.tables, tt)
	return tt
}

// joinKeys returns the key tape for a table's first level: the tape with
// the same spec whose register starts with the same contents, or a new one.
func (s *tapeSet) joinKeys(h core.TableHistory) *keyTape {
	for _, t := range s.keys {
		if t.spec == h.Spec && t.reg.Equal(h.Reg) {
			t.members = append(t.members, h.Reg)
			return t
		}
	}
	reg := history.NewRegister(h.Reg.Depth())
	reg.Track(h.Spec)
	reg.CopyFrom(h.Reg)
	t := &keyTape{
		spec:    h.Spec,
		reg:     reg,
		members: []*history.Register{h.Reg},
		keys:    make([]uint64, s.size),
		scratch: make([]uint32, 0, reg.Depth()),
	}
	s.keys = append(s.keys, t)
	return t
}

// joinAll returns the tapes of a predictor's tables, in vote order.
func (s *tapeSet) joinAll(ts []core.KeyedTable) []*tableTape {
	out := make([]*tableTape, len(ts))
	for i, t := range ts {
		out[i] = s.join(t)
	}
	return out
}

// load pulls one block's indirect branches out.
func (s *tapeSet) load(block []trace.Record) {
	if len(s.tables) == 0 {
		return
	}
	s.pcs, s.targets = s.pcs[:0], s.targets[:0]
	for _, r := range block {
		if r.Kind.Indirect() {
			s.pcs = append(s.pcs, r.PC)
			s.targets = append(s.targets, r.Target)
		}
	}
}

// fill advances every key tape over the run of the block's branches that
// starts at lo, steps every live table once per branch of it, and returns
// the run's length.
func (s *tapeSet) fill(lo int) int {
	hi := min(lo+s.size, len(s.targets))
	pcs, targets := s.pcs[lo:hi], s.targets[lo:hi]
	for _, t := range s.keys {
		t.fill(pcs, targets)
	}
	for _, t := range s.tables {
		if t.err == nil {
			t.step(targets)
		}
	}
	return hi - lo
}

// writeBack copies every key tape's history into the registers it stands
// for, so each keyed table holds exactly the history its predictor's Update
// calls would have left.
func (s *tapeSet) writeBack() {
	for _, t := range s.keys {
		for _, m := range t.members {
			m.CopyFrom(t.reg)
		}
	}
}

// keyedLane accounts a lane from the tapes of its predictor's tables and of
// its shadow's, each in vote order.
type keyedLane struct {
	p, shadow []*tableTape
	// votes and svotes are the tapes' answers, as core.Vote reads them.
	votes, svotes [][]core.Answer
}

// run is Kernel.Run for a keyed lane over the n branches its tapes were
// just filled for: every branch takes the answer the vote picks from its
// tables' and is counted through the same counts.account. It reports the
// panic of a table the lane reads instead, the lane's own failure.
//
// The default case serves any lane. The plain table, the two-table hybrid
// and the plain table with a shadow, which are nearly every lane of the
// paper's grids, each get the same loop unrolled: at 80,000 branches on a 2-vCPU x86 VM, fig17 took
// 2.0-2.2 s with the default case alone against 1.6-1.7 s, and tableA1
// 20-23 s against 15-17.5 s; a vote taken tape by tape into a scratch tape
// did not win that back.
func (kl *keyedLane) run(k *Kernel, n int) error {
	for _, ts := range [2][]*tableTape{kl.p, kl.shadow} {
		for _, t := range ts {
			if t.err != nil {
				return t.err
			}
		}
	}
	// The first skip branches fall in the warmup.
	skip := min(max(k.warmup-k.seen, 0), n)
	var c counts
	switch {
	case len(kl.votes) == 1 && kl.svotes == nil:
		// A plain table's answer is the lane's: no vote to take.
		for _, a := range kl.votes[0][skip:n] {
			c = c.account(!a.Correct(), a.Predicted(), false)
		}
	case len(kl.votes) == 2 && kl.svotes == nil:
		// The paper's two-table hybrid: one offer per branch.
		first, second := kl.votes[0][skip:n], kl.votes[1][skip:n]
		for j, a := range first {
			a = a.Offer(second[j])
			c = c.account(!a.Correct(), a.Predicted(), false)
		}
	case len(kl.votes) == 1 && len(kl.svotes) == 1:
		// A plain table with its unbounded shadow (§5.1's capacity-miss
		// attribution): two answers per branch, no vote.
		shadow := kl.svotes[0][skip:n]
		for j, a := range kl.votes[0][skip:n] {
			c = c.account(!a.Correct(), a.Predicted(), shadow[j].Correct())
		}
	default:
		for j := skip; j < n; j++ {
			a := core.Vote(kl.votes, j)
			shadowCorrect := kl.svotes != nil && core.Vote(kl.svotes, j).Correct()
			c = c.account(!a.Correct(), a.Predicted(), shadowCorrect)
		}
	}
	k.seen += n
	c.addTo(&k.res)
	return nil
}

// shareTables gives a keyed step to every lane of a call over n records
// that can take one, and returns the tapes they read. A lane runs keyed when its predictor and its
// shadow (if any) are keyed and it asks for nothing only Kernel.Run
// provides (Options.Keyable). Each distinct table gets one tape, however
// many lanes read it. A table or any other instance that a Kernel.Run lane
// uses must be that lane's alone, or the lanes' updates would interleave;
// shareTables rejects such a call before anything runs.
func shareTables(ps []core.Predictor, opts []Options, n int) (*tapeSet, []*keyedLane, error) {
	tables := make([][2][]core.KeyedTable, len(ps))
	keyed := make([]bool, len(ps))
	for i, o := range opts {
		var ok, sok bool
		tables[i][0], ok = keyedTables(ps[i])
		sok = true
		if o.Shadow != nil {
			tables[i][1], sok = keyedTables(o.Shadow)
		}
		keyed[i] = ok && sok && o.Keyable()
	}
	if err := checkShared(ps, opts, tables, keyed); err != nil {
		return nil, nil, err
	}
	s := &tapeSet{size: min(n, tapeLen), byTable: make(map[core.KeyedTable]*tableTape)}
	kls := make([]*keyedLane, len(ps))
	for i := range ps {
		if !keyed[i] {
			continue
		}
		kl := &keyedLane{p: s.joinAll(tables[i][0])}
		kl.votes = outs(kl.p)
		if opts[i].Shadow != nil {
			kl.shadow = s.joinAll(tables[i][1])
			kl.svotes = outs(kl.shadow)
		}
		kls[i] = kl
	}
	if len(s.tables) > 0 {
		s.pcs, s.targets = make([]uint32, 0, min(n, blockSize)), make([]uint32, 0, min(n, blockSize))
	}
	return s, kls, nil
}

// keyedTables returns the keyed tables p reads and whether p is keyed now.
func keyedTables(p core.Predictor) ([]core.KeyedTable, bool) {
	kp, ok := p.(core.Keyed)
	if !ok {
		return nil, false
	}
	return kp.Tables(nil)
}

// outs returns the answer tapes of ts.
func outs(ts []*tableTape) [][]core.Answer {
	out := make([][]core.Answer, len(ts))
	for i, t := range ts {
		out[i] = t.out
	}
	return out
}

// checkShared rejects mutable state that lanes would share unsafely. Keyed
// lanes may share any instance: the engine steps each table once per
// branch, and a keyed predictor holds nothing but its tables. An instance
// that a Kernel.Run lane uses — its predictor, its shadow, a table of
// either, or its event sink — must belong to that lane alone, and to one of
// its predictor and shadow, since Kernel.Run steps each of them.
func checkShared(ps []core.Predictor, opts []Options, tables [][2][]core.KeyedTable, keyed []bool) error {
	type use struct {
		lane, side int
		keyed      bool
	}
	owner := make(map[any]use)
	// claim records a use of x by one side of a lane (0 the predictor, 1
	// the shadow, 2 the event sink). Only a table may repeat what its side
	// already claimed: a TwoLevel is its own table.
	claim := func(x any, lane, side int, what string, table bool) error {
		// Instances are compared by identity. A value whose type cannot
		// be compared is skipped: every predictor here is a pointer.
		if x == nil || !reflect.TypeOf(x).Comparable() {
			return nil
		}
		u, dup := owner[x]
		switch {
		case !dup:
			owner[x] = use{lane, side, keyed[lane]}
			return nil
		case u.keyed && keyed[lane], table && u.lane == lane && u.side == side:
			return nil
		}
		return fmt.Errorf("sim: lanes %d and %d share one %s; only keyed lanes may share state", u.lane, lane, what)
	}
	for i, o := range opts {
		err := claim(ps[i], i, 0, "predictor instance", false)
		if err == nil && o.Shadow != nil {
			err = claim(o.Shadow, i, 1, "predictor instance (Options.Shadow)", false)
		}
		if err == nil && o.Events != nil {
			err = claim(o.Events, i, 2, "Options.Events sink", false)
		}
		for side, ts := range tables[i] {
			for _, t := range ts {
				if err == nil {
					err = claim(t, i, side, "keyed table", true)
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
