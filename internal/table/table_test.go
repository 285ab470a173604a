package table

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestTaglessNoTags(t *testing.T) {
	tb := NewTagless(8)
	if tb.Probe(3) != nil {
		t.Fatal("empty table probed non-nil")
	}
	e := tb.Insert(3)
	e.Target = 0x100
	// A different key mapping to the same slot returns the foreign entry:
	// tagless tables have no tags.
	got := tb.Probe(3 + 8)
	if got == nil || got.Target != 0x100 {
		t.Errorf("tagless aliasing probe: %+v", got)
	}
	// A key mapping to a different, empty slot still misses.
	if tb.Probe(4) != nil {
		t.Error("probe of untouched slot hit")
	}
}

func TestSetAssocTagging(t *testing.T) {
	tb := NewSetAssoc(8, 1)
	e := tb.Insert(3)
	e.Target = 0x100
	if tb.Probe(3+8) != nil {
		t.Error("1-way tagged table returned aliased entry")
	}
	if got := tb.Probe(3); got == nil || got.Target != 0x100 {
		t.Errorf("tag hit failed: %+v", got)
	}
}

func TestSetAssocLRU(t *testing.T) {
	tb := NewSetAssoc(8, 4) // 2 sets of 4
	// Fill set 0 (even keys land in set key&1... mask=1).
	keys := []uint64{0, 2, 4, 6} // all set 0
	for _, k := range keys {
		tb.Insert(k).Target = uint32(k * 100)
	}
	// Touch key 0 to make it MRU; victim should then be key 2.
	if tb.Probe(0) == nil {
		t.Fatal("probe 0 missed")
	}
	tb.Insert(8) // evicts LRU of set 0
	if tb.Probe(2) != nil {
		t.Error("LRU entry 2 survived eviction")
	}
	for _, k := range []uint64{0, 4, 6, 8} {
		if tb.Probe(k) == nil {
			t.Errorf("entry %d wrongly evicted", k)
		}
	}
}

func TestSetAssocSetsAreIndependent(t *testing.T) {
	tb := NewSetAssoc(8, 2) // 4 sets
	tb.Insert(1).Target = 10
	tb.Insert(2).Target = 20
	tb.Insert(3).Target = 30
	for k, want := range map[uint64]uint32{1: 10, 2: 20, 3: 30} {
		if got := tb.Probe(k); got == nil || got.Target != want {
			t.Errorf("key %d: %+v, want target %d", k, got, want)
		}
	}
}

func TestFullAssocLRU(t *testing.T) {
	tb := NewFullAssoc(3)
	for k := uint64(1); k <= 3; k++ {
		tb.Insert(k).Target = uint32(k)
	}
	tb.Probe(1) // 1 becomes MRU; LRU order now 2,3,1
	tb.Insert(4)
	if tb.Probe(2) != nil {
		t.Error("LRU victim 2 survived")
	}
	for _, k := range []uint64{1, 3, 4} {
		if tb.Probe(k) == nil {
			t.Errorf("key %d evicted unexpectedly", k)
		}
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestFullAssocInsertExisting(t *testing.T) {
	tb := NewFullAssoc(4)
	tb.Insert(7).Target = 1
	tb.Insert(7).Target = 2
	if tb.Len() != 1 {
		t.Fatalf("duplicate insert grew table to %d", tb.Len())
	}
	if got := tb.Probe(7); got.Target != 2 {
		t.Errorf("Target = %d", got.Target)
	}
}

func TestFullAssocSingleEntry(t *testing.T) {
	tb := NewFullAssoc(1)
	tb.Insert(1).Target = 10
	tb.Insert(2).Target = 20
	if tb.Probe(1) != nil {
		t.Error("capacity-1 table kept evicted key")
	}
	if got := tb.Probe(2); got == nil || got.Target != 20 {
		t.Errorf("capacity-1 table lost current key: %+v", got)
	}
}

// TestFullAssocMatchesReference drives the LRU table against a brute-force
// reference model with random probe/insert traffic. Key spaces of about 2.5×
// the capacity force steady eviction; at capacity 1000 the index grows
// through several sizes and backward-shift deletion wraps around its end.
func TestFullAssocMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 16, 1000} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			fullAssocMatchesReference(t, capacity, (5*capacity+1)/2)
		})
	}
}

func fullAssocMatchesReference(t *testing.T, capacity, keys int) {
	tb := NewFullAssoc(capacity)
	type refEntry struct {
		key    uint64
		target uint32
	}
	var ref []refEntry // index 0 = MRU
	refFind := func(key uint64) int {
		for i, e := range ref {
			if e.key == key {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewPCG(21, 22))
	for step := 0; step < 20000; step++ {
		key := uint64(rng.IntN(keys))
		if i := refFind(key); i >= 0 {
			e := ref[i]
			copy(ref[1:i+1], ref[:i])
			ref[0] = e
			got := tb.Probe(key)
			if got == nil || got.Target != e.target {
				t.Fatalf("step %d: probe %d = %+v, want target %d", step, key, got, e.target)
			}
		} else {
			if tb.Probe(key) != nil {
				t.Fatalf("step %d: probe %d hit, reference says miss", step, key)
			}
			tgt := rng.Uint32()
			tb.Insert(key).Target = tgt
			if len(ref) == capacity {
				ref = ref[:capacity-1]
			}
			ref = append([]refEntry{{key, tgt}}, ref...)
		}
	}
	if tb.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", tb.Len(), len(ref))
	}
}

// TestSetAssocMatchesReference does the same for a 4-way set-associative
// table.
func TestSetAssocMatchesReference(t *testing.T) {
	const entries, ways = 32, 4
	sets := entries / ways
	tb := NewSetAssoc(entries, ways)
	type refEntry struct {
		key    uint64
		target uint32
	}
	ref := make([][]refEntry, sets) // per set, index 0 = MRU
	rng := rand.New(rand.NewPCG(23, 24))
	for step := 0; step < 20000; step++ {
		key := uint64(rng.IntN(200))
		set := int(key) % sets
		idx := -1
		for i, e := range ref[set] {
			if e.key == key {
				idx = i
				break
			}
		}
		if idx >= 0 {
			e := ref[set][idx]
			copy(ref[set][1:idx+1], ref[set][:idx])
			ref[set][0] = e
			got := tb.Probe(key)
			if got == nil || got.Target != e.target {
				t.Fatalf("step %d: probe %d = %+v, want %d", step, key, got, e.target)
			}
		} else {
			if tb.Probe(key) != nil {
				t.Fatalf("step %d: probe %d hit, want miss", step, key)
			}
			tgt := rng.Uint32()
			tb.Insert(key).Target = tgt
			if len(ref[set]) == ways {
				ref[set] = ref[set][:ways-1]
			}
			ref[set] = append([]refEntry{{key, tgt}}, ref[set]...)
		}
	}
}

func TestUnbounded64NeverEvicts(t *testing.T) {
	tb := NewUnbounded64()
	for k := uint64(0); k < 10000; k++ {
		tb.Insert(k).Target = uint32(k)
	}
	for k := uint64(0); k < 10000; k++ {
		if got := tb.Probe(k); got == nil || got.Target != uint32(k) {
			t.Fatalf("key %d lost: %+v", k, got)
		}
	}
	if tb.Len() != 10000 {
		t.Errorf("Len = %d", tb.Len())
	}
	if tb.Capacity() != -1 {
		t.Errorf("Capacity = %d, want -1", tb.Capacity())
	}
}

func TestExact(t *testing.T) {
	tb := NewExact(3)
	path := []uint32{1, 2, 3}
	k1 := &ExactKey{Hash: 5, Sel: 9, Newer: path[:1], Older: path[1:]}
	k2 := &ExactKey{Hash: 5, Sel: 9, Newer: []uint32{1, 2}, Older: []uint32{4}} // same hash, other key
	if tb.Probe(k1) != nil {
		t.Fatal("empty probe hit")
	}
	tb.Insert(k1).Target = 7
	if tb.Probe(k2) != nil {
		t.Error("distinct key with an equal hash hit")
	}
	// The same key split at another ring position is the same key.
	if got := tb.Probe(&ExactKey{Hash: 5, Sel: 9, Newer: path, Older: nil}); got == nil || got.Target != 7 {
		t.Errorf("probe: %+v", got)
	}
	// Mutating the path after insert must not corrupt the table.
	path[0] = 99
	if got := tb.Probe(&ExactKey{Hash: 5, Sel: 9, Newer: []uint32{1, 2, 3}}); got == nil || got.Target != 7 {
		t.Error("table aliased caller's key buffer")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
	tb.Reset()
	if tb.Len() != 0 || tb.Probe(&ExactKey{Hash: 5, Sel: 9, Newer: []uint32{1, 2, 3}}) != nil {
		t.Error("Reset did not clear")
	}
}

func TestEntryResetOnReplace(t *testing.T) {
	tb := NewTagless(2)
	e := tb.Insert(0)
	e.Target, e.Hyst, e.Conf, e.Chosen = 9, 1, 3, 2
	e2 := tb.Insert(2) // same slot
	if e2.Target != 0 || e2.Hyst != 0 || e2.Conf != 0 || e2.Chosen != 0 {
		t.Errorf("Insert did not reset entry: %+v", e2)
	}
	if !e2.valid {
		t.Error("inserted entry not valid")
	}
	if e2.Key() != 2 {
		t.Errorf("Key = %d", e2.Key())
	}
}

func TestUtilizationAndReset(t *testing.T) {
	for _, tb := range []Bounded{NewTagless(8), NewSetAssoc(8, 2), NewFullAssoc(8)} {
		if u := tb.Utilization(); u != 0 {
			t.Errorf("%s: empty utilization %v", tb.Kind(), u)
		}
		for k := uint64(0); k < 4; k++ {
			tb.Insert(k)
		}
		if u := tb.Utilization(); u <= 0 || u > 1 {
			t.Errorf("%s: utilization %v out of range", tb.Kind(), u)
		}
		tb.Reset()
		if u := tb.Utilization(); u != 0 {
			t.Errorf("%s: utilization %v after Reset", tb.Kind(), u)
		}
		if tb.Probe(0) != nil {
			t.Errorf("%s: probe hit after Reset", tb.Kind())
		}
	}
}

func TestKindsAndCapacity(t *testing.T) {
	cases := []struct {
		tb   Bounded
		kind string
		cap  int
	}{
		{NewTagless(16), "tagless", 16},
		{NewSetAssoc(16, 1), "assoc1", 16},
		{NewSetAssoc(16, 2), "assoc2", 16},
		{NewSetAssoc(16, 4), "assoc4", 16},
		{NewFullAssoc(16), "fullassoc", 16},
		{NewUnbounded64(), "unbounded", -1},
	}
	for _, c := range cases {
		if c.tb.Kind() != c.kind {
			t.Errorf("Kind = %q, want %q", c.tb.Kind(), c.kind)
		}
		if c.tb.Capacity() != c.cap {
			t.Errorf("%s: Capacity = %d, want %d", c.kind, c.tb.Capacity(), c.cap)
		}
	}
}

func TestNewByName(t *testing.T) {
	for _, kind := range []string{"tagless", "assoc1", "assoc2", "assoc4", "fullassoc", "unbounded"} {
		tb, err := New(kind, 64)
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if tb.Kind() != kind {
			t.Errorf("New(%q).Kind() = %q", kind, tb.Kind())
		}
	}
	for _, kind := range []string{"", "assoc3", "assoc0", "weird", "assoc128"} {
		if _, err := New(kind, 64); err == nil {
			t.Errorf("New(%q) accepted", kind)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewTagless(0) },
		func() { NewTagless(3) },
		func() { NewSetAssoc(8, 3) },
		func() { NewSetAssoc(6, 2) },
		func() { NewSetAssoc(2, 4) },
		func() { NewFullAssoc(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

// TestBoundedProbeAfterInsert is the cross-organization contract: Probe(k)
// immediately after Insert(k) returns the inserted entry.
func TestBoundedProbeAfterInsert(t *testing.T) {
	mk := []func() Bounded{
		func() Bounded { return NewTagless(64) },
		func() Bounded { return NewSetAssoc(64, 1) },
		func() Bounded { return NewSetAssoc(64, 2) },
		func() Bounded { return NewSetAssoc(64, 4) },
		func() Bounded { return NewFullAssoc(64) },
		func() Bounded { return NewUnbounded64() },
	}
	for _, make := range mk {
		tb := make()
		f := func(key uint64, target uint32) bool {
			tb.Insert(key).Target = target
			got := tb.Probe(key)
			return got != nil && got.Target == target
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", tb.Kind(), err)
		}
	}
}
