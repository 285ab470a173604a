package sim

import (
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/trace"
)

// EventRecorder receives one ptrace.Event per dynamic indirect branch a
// Kernel runs, warmup included. *ptrace.EventSink implements it.
type EventRecorder interface {
	Record(ev ptrace.Event)
}

// MissObserver receives one call per counted (post-warmup) misprediction,
// carrying the predictor's attribution of the probe that missed — or just
// the hit bit (tableHit = a target was predicted) for predictors that record
// no attribution. The serve tuner's *tuner.SessionTuner implements it.
type MissObserver interface {
	ObserveMiss(tableHit, altCorrect, newEntry, evicted bool)
}

// Kernel is the one definition of running trace records through a predictor
// under the paper's accounting: conditional branches feed the predictor's
// core.CondObserver, returns and other non-indirect records are skipped, and
// every dynamic indirect branch is predicted, resolved (Update), and counted
// once past the warmup, a missing target counting as a miss. The sim lanes,
// the serve sessions and the tuner's swap replay all drive a Kernel.
//
// The optional hooks — shadow twin, FlushEvery reset, per-site stats (all
// from Options), an EventRecorder and a MissObserver — each cost one nil
// check per record when absent.
//
// A Kernel is single-goroutine state and does not recover panics: a
// predictor panic unwinds out of Run, leaving the counters at their pre-Run
// values, and the caller that recovers it must treat the kernel as dead.
type Kernel struct {
	p          core.Predictor
	condObs    core.CondObserver
	resetter   core.Resetter
	shadow     core.Predictor
	shadowObs  core.CondObserver
	shadowRst  core.Resetter
	flushEvery int
	warmup     int
	events     EventRecorder
	misses     MissObserver
	attrib     core.Attributor
	seen       int
	res        Result
}

// NewKernel returns a kernel over p configured by opts. Options.Events, when
// set, is attached as the kernel's EventRecorder.
func NewKernel(p core.Predictor, opts Options) *Kernel {
	k := &Kernel{
		p:          p,
		shadow:     opts.Shadow,
		flushEvery: opts.FlushEvery,
		warmup:     opts.Warmup,
		res:        Result{Warmup: opts.Warmup},
	}
	k.condObs, _ = p.(core.CondObserver)
	k.resetter, _ = p.(core.Resetter)
	if k.shadow != nil {
		k.shadowObs, _ = k.shadow.(core.CondObserver)
		k.shadowRst, _ = k.shadow.(core.Resetter)
	}
	if opts.Sites {
		k.res.PerSite = make(map[uint32]*SiteStats)
	}
	if opts.Events != nil {
		k.SetEvents(opts.Events)
	}
	return k
}

// SetEvents attaches rec to receive one event per dynamic indirect branch.
// Predictors implementing core.Attributor have attribution recording
// switched on, so events carry the pattern, table and component detail.
func (k *Kernel) SetEvents(rec EventRecorder) {
	k.events = rec
	k.attribute()
}

// SetMissObserver attaches o to receive every counted misprediction, with
// attribution switched on as for SetEvents.
func (k *Kernel) SetMissObserver(o MissObserver) {
	k.misses = o
	k.attribute()
}

func (k *Kernel) attribute() {
	if a, ok := k.p.(core.Attributor); ok {
		a.SetAttribution(true)
		k.attrib = a
	}
}

// Predictor returns the kernel's predictor.
func (k *Kernel) Predictor() core.Predictor { return k.p }

// Result returns the accounting so far.
func (k *Kernel) Result() Result { return k.res }

// Run advances the kernel over recs. The hot counters live in locals for the
// duration of the call and are written back at its end, so callers should
// hand it blocks of records rather than single ones.
func (k *Kernel) Run(recs []trace.Record) {
	seen, res := k.seen, k.res
	for _, r := range recs {
		switch {
		case r.Kind == trace.Cond:
			if k.condObs != nil {
				k.condObs.ObserveCond(r.PC, r.Target, r.Target != 0)
			}
			if k.shadowObs != nil {
				k.shadowObs.ObserveCond(r.PC, r.Target, r.Target != 0)
			}
			continue
		case !r.Kind.Indirect():
			continue
		}
		if k.flushEvery > 0 && seen > 0 && seen%k.flushEvery == 0 {
			if k.resetter != nil {
				k.resetter.Reset()
			}
			if k.shadowRst != nil {
				k.shadowRst.Reset()
			}
		}
		pred, ok := k.p.Predict(r.PC)
		k.p.Update(r.PC, r.Target)
		var shadowCorrect bool
		if k.shadow != nil {
			st, sok := k.shadow.Predict(r.PC)
			k.shadow.Update(r.PC, r.Target)
			shadowCorrect = sok && st == r.Target
		}
		seen++
		miss := !ok || pred != r.Target
		if k.events != nil {
			k.emit(r, pred, ok, miss, seen)
		}
		if seen <= k.warmup {
			continue
		}
		res.Executed++
		if miss {
			res.Misses++
			if !ok {
				res.NoPrediction++
			}
			if shadowCorrect {
				res.CapacityMisses++
			}
			if k.misses != nil {
				k.observeMiss(ok)
			}
		}
		if res.PerSite != nil {
			ss := res.PerSite[r.PC]
			if ss == nil {
				ss = &SiteStats{}
				res.PerSite[r.PC] = ss
			}
			ss.Executed++
			if miss {
				ss.Misses++
			}
		}
	}
	k.seen, k.res = seen, res
}

// emit offers one per-prediction event to the recorder, merging the
// sim-visible outcome with the predictor's attribution detail when the
// predictor records it. Kept out of Run so the hot loop's events-disabled
// cost stays at a single nil check.
func (k *Kernel) emit(r trace.Record, pred uint32, ok, miss bool, seen int) {
	ev := ptrace.Event{
		Seq:       uint64(seen),
		PC:        r.PC,
		Predicted: pred,
		Actual:    r.Target,
		Component: -1,
		HasPred:   ok,
		Miss:      miss,
		Warmup:    seen <= k.warmup,
		TableHit:  ok,
	}
	if k.attrib != nil {
		a := k.attrib.Attribution()
		ev.Pattern, ev.Component, ev.Conf = a.Pattern, a.Component, a.Conf
		ev.TableHit, ev.Evicted = a.TableHit, a.Evicted
		ev.NewEntry, ev.AltCorrect = a.NewEntry, a.AltCorrect
	}
	k.events.Record(ev)
}

// observeMiss classifies one counted miss for the miss observer.
func (k *Kernel) observeMiss(hasPred bool) {
	if k.attrib != nil {
		a := k.attrib.Attribution()
		k.misses.ObserveMiss(a.TableHit, a.AltCorrect, a.NewEntry, a.Evicted)
		return
	}
	k.misses.ObserveMiss(hasPred, false, false, false)
}
