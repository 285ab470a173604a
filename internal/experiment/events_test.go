package experiment

import (
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/workload"
)

func TestRunEventsMatchesSweep(t *testing.T) {
	c := NewContext(2000)
	bench, err := workload.ByName("idl")
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Mk: func() (core.Predictor, error) {
			return core.NewTwoLevel(core.Config{
				PathLength: 2, Precision: core.AutoPrecision,
				Scheme: bits.Reverse, TableKind: "assoc4", Entries: 512,
			})
		},
		Opts: sim.Options{Warmup: 100},
	}
	sink := ptrace.NewEventSink(4096, 1)
	res, err := c.RunEvents(bench, spec, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed == 0 {
		t.Fatal("no branches executed")
	}
	if sink.Offered() != uint64(res.Executed+100) {
		t.Errorf("sink offered %d events for %d counted + 100 warmup branches",
			sink.Offered(), res.Executed)
	}

	// The same cell through the plain sweep path must agree exactly: event
	// capture may not perturb the simulation.
	p, err := spec.Mk()
	if err != nil {
		t.Fatal(err)
	}
	plain := sim.Run(p, c.Trace(bench), sim.Options{Warmup: 100})
	if plain.Executed != res.Executed || plain.Misses != res.Misses {
		t.Errorf("event-capture run %d/%d != plain run %d/%d",
			res.Executed, res.Misses, plain.Executed, plain.Misses)
	}
}

func TestRunEventsValidation(t *testing.T) {
	c := NewContext(500)
	bench, err := workload.ByName("idl")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunEvents(bench, SweepSpec{}, nil); err == nil {
		t.Error("spec without Mk or Tables accepted")
	}
	spec := SweepSpec{
		Mk:   func() (core.Predictor, error) { return core.NewBTB(nil, core.UpdateAlways), nil },
		Opts: sim.Options{Shadow: core.NewBTB(nil, core.UpdateAlways)},
	}
	if _, err := c.RunEvents(bench, spec, nil); err == nil {
		t.Error("Opts.Shadow accepted (must come from Shadow)")
	}
}
