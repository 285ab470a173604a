package table

import (
	"math/rand/v2"
	"testing"
)

// TestTaglessStats pins the eviction semantics of the tagless table: an
// explicit Insert over a live different-key entry is an eviction; a
// ProbeOrInsert of a live slot is a hit regardless of key (the tagless
// interference property) and must count nothing.
func TestTaglessStats(t *testing.T) {
	tb := NewTagless(8)
	tb.Insert(0) // empty slot: insert, no eviction
	if s := tb.Stats(); s.Inserts != 1 || s.Evictions != 0 {
		t.Fatalf("first insert: %+v", s)
	}
	tb.Insert(8) // same slot (8 & 7 == 0), different key: eviction
	if s := tb.Stats(); s.Inserts != 2 || s.Evictions != 1 {
		t.Fatalf("conflicting insert: %+v", s)
	}
	tb.Insert(8) // same key re-insert: not an eviction
	if s := tb.Stats(); s.Inserts != 3 || s.Evictions != 1 {
		t.Fatalf("same-key insert: %+v", s)
	}
	if _, hit := tb.ProbeOrInsert(16); !hit {
		t.Fatal("tagless ProbeOrInsert of a live slot must hit")
	}
	if s := tb.Stats(); s.Inserts != 3 {
		t.Fatalf("hit must not count as insert: %+v", s)
	}
	tb.Reset()
	s := tb.Stats()
	if s.Resets != 1 || s.Occupancy != 0 {
		t.Fatalf("after reset: %+v", s)
	}
	if _, hit := tb.ProbeOrInsert(16); hit {
		t.Fatal("post-reset slot must miss")
	}
	if s = tb.Stats(); s.Inserts != 4 {
		t.Fatalf("post-reset miss must insert: %+v", s)
	}
	if s.Kind != "tagless" || s.Capacity != 8 {
		t.Errorf("identity: %+v", s)
	}
}

// TestBoundedStatsFillAndEvict drives every bounded organization past
// capacity and checks the common invariants: inserts counted, evictions
// appear once the table is full, occupancy reaches 1. The tagless table is
// the exception on evictions: ProbeOrInsert of a live slot is a hit by
// design (no tags to mismatch), so only explicit Insert evicts — covered by
// TestTaglessStats.
func TestBoundedStatsFillAndEvict(t *testing.T) {
	for _, kind := range []string{"tagless", "assoc1", "assoc2", "assoc4", "fullassoc"} {
		t.Run(kind, func(t *testing.T) {
			tb, err := New(kind, 16)
			if err != nil {
				t.Fatal(err)
			}
			// Two full passes over 2× capacity of distinct keys: every
			// set is exercised and, for the tagged tables, the conflicting
			// keys must displace live entries.
			for pass := 0; pass < 2; pass++ {
				for k := uint64(0); k < 32; k++ {
					tb.ProbeOrInsert(k * 1315423911)
				}
			}
			s := tb.Stats()
			if s.Inserts == 0 {
				t.Fatalf("no inserts counted: %+v", s)
			}
			if kind != "tagless" && s.Evictions == 0 {
				t.Errorf("2× capacity stream produced no evictions: %+v", s)
			}
			if s.Evictions > s.Inserts {
				t.Errorf("more evictions than inserts: %+v", s)
			}
			if s.Occupancy != 1 {
				t.Errorf("occupancy = %v after overfilling, want 1", s.Occupancy)
			}
			if s.Capacity != 16 || s.Kind != kind {
				t.Errorf("identity: %+v", s)
			}
		})
	}
}

func TestUnboundedStats(t *testing.T) {
	tb := NewUnbounded64()
	for k := uint64(0); k < 10; k++ {
		tb.ProbeOrInsert(k)
	}
	s := tb.Stats()
	if s.Inserts != 10 || s.Evictions != 0 || s.Capacity != -1 || s.Occupancy != 1 {
		t.Errorf("unbounded64: %+v", s)
	}
	tb.Reset()
	if s = tb.Stats(); s.Resets != 1 {
		t.Errorf("unbounded64 reset: %+v", s)
	}

	str := NewUnboundedStr()
	e, hit := str.ProbeOrInsert([]byte("abc"))
	if hit || e == nil {
		t.Fatal("fresh key must miss")
	}
	if s := str.Stats(); s.Inserts != 1 || s.Kind != "exact" || s.Capacity != -1 {
		t.Errorf("unboundedStr: %+v", s)
	}
}

func TestStatsSub(t *testing.T) {
	cur := Stats{Kind: "assoc2", Capacity: 64, Occupancy: 0.5, Inserts: 100, Evictions: 30, Resets: 4}
	prev := Stats{Inserts: 60, Evictions: 10, Resets: 1}
	d := cur.Sub(prev)
	if d.Inserts != 40 || d.Evictions != 20 || d.Resets != 3 {
		t.Errorf("Sub counters: %+v", d)
	}
	// Occupancy and identity are point-in-time, kept from cur.
	if d.Occupancy != 0.5 || d.Kind != "assoc2" || d.Capacity != 64 {
		t.Errorf("Sub identity: %+v", d)
	}
}

func TestStatsMerge(t *testing.T) {
	got := Merge([]Stats{
		{Kind: "assoc2", Capacity: 64, Occupancy: 0.5, Inserts: 10, Evictions: 2},
		{Kind: "assoc2", Capacity: 64, Occupancy: 1.0, Inserts: 20, Resets: 1},
	})
	if got.Kind != "assoc2" || got.Capacity != 128 || got.Occupancy != 0.75 ||
		got.Inserts != 30 || got.Evictions != 2 || got.Resets != 1 {
		t.Errorf("homogeneous merge: %+v", got)
	}

	mixed := Merge([]Stats{
		{Kind: "btb", Capacity: 512, Occupancy: 0.25, Inserts: 5},
		{Kind: "exact", Capacity: -1, Occupancy: 1, Inserts: 7},
	})
	if mixed.Kind != "mixed" || mixed.Capacity != -1 || mixed.Occupancy != 0.25 ||
		mixed.Inserts != 12 {
		t.Errorf("mixed merge: %+v", mixed)
	}

	if all := Merge([]Stats{{Capacity: -1, Occupancy: 1}}); all.Occupancy != 1 {
		t.Errorf("all-unbounded merge occupancy = %v, want 1", all.Occupancy)
	}
	if empty := Merge(nil); empty != (Stats{}) {
		t.Errorf("empty merge: %+v", empty)
	}
}

// TestResetStatsIndependence guards the lane-baseline mechanism: counters
// are cumulative across Reset (they are provenance, not state), while Reset
// still restores predictive state exactly — which the reset_test.go
// equivalence tests verify separately.
func TestResetStatsIndependence(t *testing.T) {
	tb := NewTagless(8)
	tb.Insert(1)
	tb.Insert(2)
	before := tb.Stats()
	tb.Reset()
	after := tb.Stats()
	if after.Inserts != before.Inserts {
		t.Errorf("Reset clobbered insert count: %+v -> %+v", before, after)
	}
	if after.Resets != before.Resets+1 {
		t.Errorf("Reset not counted: %+v -> %+v", before, after)
	}
	d := after.Sub(before)
	if d.Inserts != 0 || d.Resets != 1 {
		t.Errorf("delta across reset: %+v", d)
	}
}

// scanUtilization is the brute-force occupancy the live counts replace: the
// share of slots holding an entry of the table's current generation.
func scanUtilization(slots []Entry, gen uint32) float64 {
	n := 0
	for i := range slots {
		if slots[i].valid && slots[i].gen == gen {
			n++
		}
	}
	return float64(n) / float64(len(slots))
}

// TestUtilizationMatchesScan drives the dense tables through random
// Probe/Insert/ProbeOrInsert/Victim/Reset sequences, generation wraps
// included, and checks after every operation that the O(1) occupancy equals
// a scan of the slots, bit for bit.
func TestUtilizationMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	for trial := 0; trial < 40; trial++ {
		entries := 1 << (1 + rng.IntN(7))
		ways := 1 << rng.IntN(3)
		var tb Bounded
		var slots func() ([]Entry, uint32)
		if ways > entries || rng.IntN(4) == 0 {
			tl := NewTagless(entries)
			tb, slots = tl, func() ([]Entry, uint32) { return tl.slots, tl.gen }
			if rng.IntN(3) == 0 {
				tl.gen = ^uint32(0) - uint32(rng.IntN(3)) // wrap within the trial
			}
		} else {
			sa := NewSetAssoc(entries, ways)
			tb, slots = sa, func() ([]Entry, uint32) { return sa.slots, sa.gen }
			if rng.IntN(3) == 0 {
				sa.gen = ^uint32(0) - uint32(rng.IntN(3))
			}
		}
		keys := uint64(2 * entries)
		for op := 0; op < 600; op++ {
			key := rng.Uint64N(keys) * 0x9E3779B1
			switch r := rng.IntN(100); {
			case r < 30:
				tb.Probe(key)
			case r < 50:
				tb.Insert(key)
			case r < 95:
				tb.ProbeOrInsert(key)
			case r < 98:
				tb.Victim(key)
			default:
				tb.Reset()
			}
			s, gen := slots()
			if got, want := tb.Utilization(), scanUtilization(s, gen); got != want {
				t.Fatalf("trial %d (%s/%d), op %d: Utilization %v, scan %v", trial, tb.Kind(), entries, op, got, want)
			}
			if got, want := tb.Stats().Occupancy, scanUtilization(s, gen); got != want {
				t.Fatalf("trial %d (%s/%d), op %d: Stats().Occupancy %v, scan %v", trial, tb.Kind(), entries, op, got, want)
			}
		}
	}
}
