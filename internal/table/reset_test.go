package table

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

// boundedKinds builds one instance of every bounded organization at a small
// capacity, so interference and eviction paths are exercised.
func boundedKinds(t *testing.T) []Bounded {
	t.Helper()
	mk := func(kind string, entries int) Bounded {
		tb, err := New(kind, entries)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	return []Bounded{
		mk("tagless", 32),
		mk("assoc1", 32),
		mk("assoc2", 32),
		mk("assoc4", 32),
		mk("fullassoc", 16),
		mk("unbounded", 0),
	}
}

// TestProbeOrInsertMatchesProbeInsert drives twin tables through the same
// random key stream: one via the combined walk, one via the classic
// Probe-then-Insert pair. Every observable (hit/miss, stored target,
// utilization) must agree — ProbeOrInsert is a pure fusion, not a semantic
// change.
func TestProbeOrInsertMatchesProbeInsert(t *testing.T) {
	a := boundedKinds(t)
	b := boundedKinds(t)
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 4000; i++ {
		key := uint64(rng.IntN(96)) // collisions and evictions guaranteed
		target := rng.Uint32()
		for k := range a {
			ea, found := a[k].ProbeOrInsert(key)
			eb := b[k].Probe(key)
			if found != (eb != nil) {
				t.Fatalf("%s: step %d key %d: combined found=%v, probe hit=%v",
					a[k].Kind(), i, key, found, eb != nil)
			}
			if !found {
				eb = b[k].Insert(key)
				ea.Target = target
				eb.Target = target
			} else if ea.Target != eb.Target {
				t.Fatalf("%s: step %d key %d: target %#x != %#x",
					a[k].Kind(), i, key, ea.Target, eb.Target)
			}
		}
		if i%977 == 0 {
			for k := range a {
				a[k].Reset()
				b[k].Reset()
			}
		}
	}
	for k := range a {
		if ua, ub := a[k].Utilization(), b[k].Utilization(); ua != ub {
			t.Errorf("%s: utilization %v != %v", a[k].Kind(), ua, ub)
		}
	}
}

// TestResetEquivalentToFresh is the contract behind predictor reuse across
// sweep cells: a table that has been filled and Reset must behave exactly
// like a newly constructed one — same hits, misses, LRU evictions, and
// victim choices — even for the generation-stamped tables whose Reset does
// not touch the slot array.
func TestResetEquivalentToFresh(t *testing.T) {
	used := boundedKinds(t)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tb := range used {
		for i := 0; i < 2000; i++ {
			e, found := tb.ProbeOrInsert(uint64(rng.IntN(80)))
			if !found {
				e.Target = rng.Uint32()
			}
		}
		tb.Reset()
	}
	fresh := boundedKinds(t)
	for i := 0; i < 4000; i++ {
		key := uint64(rng.IntN(96))
		target := rng.Uint32()
		for k := range used {
			kind := used[k].Kind()
			va, vb := used[k].Victim(key), fresh[k].Victim(key)
			if (va == nil) != (vb == nil) {
				t.Fatalf("%s: step %d key %d: victim %v vs fresh %v", kind, i, key, va, vb)
			}
			if va != nil && va.Key() != vb.Key() {
				t.Fatalf("%s: step %d key %d: victim key %d != %d", kind, i, key, va.Key(), vb.Key())
			}
			ea, founda := used[k].ProbeOrInsert(key)
			eb, foundb := fresh[k].ProbeOrInsert(key)
			if founda != foundb {
				t.Fatalf("%s: step %d key %d: reset table found=%v, fresh found=%v",
					kind, i, key, founda, foundb)
			}
			if !founda {
				ea.Target = target
				eb.Target = target
			} else if ea.Target != eb.Target {
				t.Fatalf("%s: step %d key %d: target %#x != %#x", kind, i, key, ea.Target, eb.Target)
			}
			if ua, ub := used[k].Utilization(), fresh[k].Utilization(); ua != ub {
				t.Fatalf("%s: step %d: utilization %v != %v", kind, i, ua, ub)
			}
		}
	}
}

// TestResetGenerationWraparound pins the wrap hardening: when the generation
// counter overflows back to zero, the slots must be cleared for real or
// entries stamped gen=0 eons ago would resurrect.
func TestResetGenerationWraparound(t *testing.T) {
	tl := NewTagless(8)
	tl.Insert(3).Target = 0xAB // stamped with gen 0
	tl.gen = ^uint32(0)        // simulate 2^32-1 resets
	if tl.Probe(3) != nil {
		t.Fatal("tagless: stale generation visible before wrap test setup")
	}
	tl.Reset() // wraps to 0
	if tl.gen != 0 {
		t.Fatalf("tagless: gen = %d after wrap", tl.gen)
	}
	if e := tl.Probe(3); e != nil {
		t.Fatalf("tagless: pre-wrap entry resurrected: %+v", e)
	}

	sa := NewSetAssoc(8, 2)
	sa.Insert(5).Target = 0xCD
	sa.gen = ^uint32(0)
	sa.Reset()
	if sa.gen != 0 {
		t.Fatalf("setassoc: gen = %d after wrap", sa.gen)
	}
	if e := sa.Probe(5); e != nil {
		t.Fatalf("setassoc: pre-wrap entry resurrected: %+v", e)
	}

	// The growable tables never use generation 0 (a zeroed slot or index
	// position must read as empty), so their wrap lands on 1 — the
	// generation the pre-wrap entries below were stamped with.
	ub := NewUnbounded64()
	ub.Insert(7).Target = 0xEF
	ub.gen = ^uint32(0)
	ub.Reset()
	if ub.gen != 1 {
		t.Fatalf("unbounded: gen = %d after wrap", ub.gen)
	}
	if e := ub.Probe(7); e != nil {
		t.Fatalf("unbounded: pre-wrap entry resurrected: %+v", e)
	}
	if ub.Len() != 0 {
		t.Fatalf("unbounded: Len = %d after wrap", ub.Len())
	}

	fa := NewFullAssoc(4)
	fa.Insert(9).Target = 0x12
	fa.gen = ^uint32(0)
	fa.Reset()
	if fa.gen != 1 {
		t.Fatalf("fullassoc: gen = %d after wrap", fa.gen)
	}
	if e := fa.Probe(9); e != nil {
		t.Fatalf("fullassoc: pre-wrap entry resurrected: %+v", e)
	}
	fa.Insert(9).Target = 0x34
	if e := fa.Probe(9); e == nil || e.Target != 0x34 || fa.Len() != 1 {
		t.Fatalf("fullassoc: insert after wrap: %+v, Len %d", e, fa.Len())
	}
}

// TestResetRefillZeroAllocs pins the reuse contract of the growable tables:
// after Reset, refilling an Unbounded64 or FullAssoc to its earlier size runs
// on the storage the table already has. The sweep's lane cache resets and
// refills every predictor once per benchmark, 17 times per sweep cell.
func TestResetRefillZeroAllocs(t *testing.T) {
	tables := []Bounded{NewUnbounded64(), NewFullAssoc(1000)}
	for _, tb := range tables {
		fill := func() {
			for k := uint64(0); k < 3000; k++ {
				if e, found := tb.ProbeOrInsert(k * 0x9E37); !found {
					e.Target = uint32(k)
				}
			}
		}
		fill()
		if allocs := testing.AllocsPerRun(5, func() { tb.Reset(); fill() }); allocs != 0 {
			t.Errorf("%s: %v allocs per Reset and refill, want 0", tb.Kind(), allocs)
		}
	}
}

// TestFullAssocGrowsOnDemand pins that a large FullAssoc holds storage for
// the entries it has seen, not for its capacity: sweeps build many such
// tables that stay mostly empty.
func TestFullAssocGrowsOnDemand(t *testing.T) {
	fa := NewFullAssoc(32768)
	for k := uint64(0); k < 100; k++ {
		fa.Insert(k)
	}
	if c := cap(fa.slots); c > 256 {
		t.Errorf("100 entries hold %d slots", c)
	}
	if n := len(fa.index); n > 512 {
		t.Errorf("100 entries hold a %d-position index", n)
	}
}

// TestEntrySize pins Entry at 24 bytes: the generation stamp must live in
// former padding, not grow the struct the hot tables are arrays of.
func TestEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(Entry{}); s != 24 {
		t.Fatalf("Entry is %d bytes, want 24", s)
	}
}
