package core

import "testing"

// cyclicStream is a fully periodic branch stream: each site walks its target
// list round-robin, sites visited in a fixed rotation. After one full period
// every (history, site) state recurs, so a trained predictor replaying the
// stream performs only lookups on existing entries.
func cyclicStream(n int) []access {
	sites := []struct {
		pc      uint32
		targets []uint32
	}{
		{0x1000, []uint32{0x2000, 0x2040, 0x2080}},
		{0x1004, []uint32{0x3000, 0x3040}},
		{0x1008, []uint32{0x4000, 0x4040, 0x4080, 0x40C0}},
		{0x100C, []uint32{0x5000}},
	}
	out := make([]access, 0, n)
	pos := make([]int, len(sites))
	for i := 0; len(out) < n; i++ {
		s := i % len(sites)
		out = append(out, access{sites[s].pc, sites[s].targets[pos[s]%len(sites[s].targets)]})
		pos[s]++
	}
	return out
}

// TestSteadyStateZeroAllocs pins the hot-loop allocation behaviour the batch
// engine depends on: once trained, a predictor replaying a periodic stream
// must not allocate at all. This covers the exact string-keyed table (probe
// via map lookup without key materialization, scratch key buffer reused), the
// dense bounded tables, the flat unbounded and fully-associative tables, and
// the hybrid's component plumbing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	stream := cyclicStream(1 << 10)
	cases := map[string]func() Predictor{
		"2lev-exact-p6": func() Predictor {
			return MustTwoLevel(Config{PathLength: 6, Precision: 0, TableKind: "exact"})
		},
		"2lev-assoc4": func() Predictor {
			return MustTwoLevel(Config{PathLength: 4, Precision: AutoPrecision, Scheme: 2, TableKind: "assoc4", Entries: 256})
		},
		"2lev-tagless": func() Predictor {
			return MustTwoLevel(Config{PathLength: 3, Precision: AutoPrecision, Scheme: 2, TableKind: "tagless", Entries: 512})
		},
		"2lev-unbounded": func() Predictor {
			return MustTwoLevel(Config{PathLength: 3, Precision: AutoPrecision})
		},
		"2lev-fullassoc": func() Predictor {
			return MustTwoLevel(Config{PathLength: 2, Precision: AutoPrecision, TableKind: "fullassoc", Entries: 64})
		},
		"btb": func() Predictor { return NewBTB(nil, UpdateTwoMiss) },
		"hybrid": func() Predictor {
			h, err := NewDualPath(3, 1, "assoc2", 256)
			if err != nil {
				panic(err)
			}
			return h
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			p := mk()
			// Two training passes: the first populates the tables, the
			// second starts from the end-of-period history state, so its
			// inserts cover exactly the keys every later replay probes.
			for pass := 0; pass < 2; pass++ {
				for _, a := range stream {
					p.Predict(a.pc)
					p.Update(a.pc, a.target)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				for _, a := range stream {
					p.Predict(a.pc)
					p.Update(a.pc, a.target)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs per replay of %d branches, want 0",
					name, allocs, len(stream))
			}
		})
	}
}
