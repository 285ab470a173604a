// Package table implements the second level of the predictors: target
// tables. The paper's progression from ideal to implementable hardware maps
// to four bounded organizations over 64-bit keys — fully-associative LRU,
// set-associative (1/2/4-way, LRU per set), direct-mapped tagged (1-way),
// and tagless direct-mapped — plus unbounded tables used for the §3
// unconstrained experiments and for capacity-miss attribution.
package table

import (
	"fmt"
	"math/bits"
)

// Entry is one target-table entry. Beyond the predicted target it carries
// the hysteresis bit of the two-miss update rule (§3.1 "2bc") and the
// confidence counter used for hybrid metaprediction (§6.1). The tag and
// valid bit are managed by the owning table.
// Fields are ordered wide-to-narrow so the struct packs into exactly 24
// bytes with no padding — the dense tables are flat []Entry arrays, and the
// hot loop's cache footprint is 24B × entries.
type Entry struct {
	key uint64
	// Target is the predicted target address.
	Target uint32
	// Next is the predicted address of the next indirect branch (the
	// §8.1 run-ahead extension); zero when unknown.
	Next uint32
	// gen stamps the generation of the owning table (Tagless, SetAssoc,
	// Unbounded64) that wrote the entry: those tables reset in O(1) by
	// bumping their generation, which makes every older entry read as
	// invalid. FullAssoc and UnboundedStr leave it zero.
	gen   uint32
	valid bool
	// Hyst is the hysteresis state of the two-miss update rule: nonzero
	// when the previous access to this entry was a misprediction.
	Hyst uint8
	// Conf is the saturating confidence counter (§6.1). Tables reset it
	// to zero when an entry is replaced.
	Conf uint8
	// Chosen is the auxiliary counter of the paper's §8.1 shared-table
	// hybrid: how often this entry's prediction was selected.
	Chosen uint8
}

// Valid reports whether the entry currently holds a prediction.
func (e *Entry) Valid() bool { return e.valid }

// Key returns the full key stored with the entry (the tag).
func (e *Entry) Key() uint64 { return e.key }

// reset prepares the entry for a new key; replacing an entry resets all
// counters (§6.1).
func (e *Entry) reset(key uint64) {
	e.key = key
	e.valid = true
	e.Target = 0
	e.Hyst = 0
	e.Conf = 0
	e.Chosen = 0
	e.Next = 0
}

// Stats is a point-in-time summary of one table's behaviour counters, the
// raw material of the telemetry layer's occupancy/eviction reporting. The
// counters are plain (non-atomic) fields on the tables — one goroutine
// steps a table — and tracking them, occupancy included, costs an increment
// or two on the insert path only, never on the predict path.
type Stats struct {
	// Kind is the table organization ("assoc4", "tagless", ...).
	Kind string `json:"kind"`
	// Capacity is the table size in entries, -1 if unbounded.
	Capacity int `json:"capacity"`
	// Occupancy is the fraction of entries valid at snapshot time
	// (unbounded tables report 1).
	Occupancy float64 `json:"occupancy"`
	// Inserts counts entry allocations (including those that evicted).
	Inserts uint64 `json:"inserts"`
	// Evictions is the subset of Inserts that displaced a live entry.
	Evictions uint64 `json:"evictions"`
	// Resets counts whole-table clears (generation bumps for the dense
	// organizations).
	Resets uint64 `json:"resets"`
}

// add accumulates o into s, keeping Kind/Capacity of the first table and
// averaging occupancy weights by table count at the caller's discretion.
func (s *Stats) add(o Stats) {
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.Resets += o.Resets
}

// Sub returns s with prev's counters subtracted: the table movement between
// two snapshots of the same table. Occupancy (a point-in-time value) is kept
// from s. Simulation lanes use it to report per-run deltas even when the
// predictor is a reused instance whose lifetime counters span earlier cells.
func (s Stats) Sub(prev Stats) Stats {
	s.Inserts -= prev.Inserts
	s.Evictions -= prev.Evictions
	s.Resets -= prev.Resets
	return s
}

// Merge folds a set of per-table stats into one aggregate: counters sum,
// occupancy averages over the bounded tables, capacity sums (−1 if any
// component is unbounded). It is what a multi-table predictor reports as a
// single per-Result line.
func Merge(stats []Stats) Stats {
	var out Stats
	bounded := 0
	for i, st := range stats {
		if i == 0 {
			out.Kind = st.Kind
		} else if out.Kind != st.Kind {
			out.Kind = "mixed"
		}
		out.add(st)
		if st.Capacity < 0 || out.Capacity < 0 {
			out.Capacity = -1
		} else {
			out.Capacity += st.Capacity
		}
		if st.Capacity >= 0 {
			out.Occupancy += st.Occupancy
			bounded++
		}
	}
	if bounded > 0 {
		out.Occupancy /= float64(bounded)
	} else if len(stats) > 0 {
		out.Occupancy = 1
	}
	return out
}

// Bounded is a prediction table over 64-bit keys. The predictor calls Probe
// first; on nil it may call Insert to allocate an entry (choosing a victim
// if the table is full). Probe updates recency state on a hit.
//
// Entry-pointer rule: an *Entry returned by any method stays valid only until
// the next Probe, Insert or ProbeOrInsert on the same table. Those calls may
// move entries (SetAssoc reorders a set on a hit; Unbounded64 and FullAssoc
// relocate entries when their arrays grow), so a caller that probes twice
// copies what it needs from the first entry before the second call.
type Bounded interface {
	// Probe returns the entry for key, or nil if the table has no
	// prediction for it.
	Probe(key uint64) *Entry
	// Insert allocates (possibly by eviction) an entry for key, resets
	// its fields, and returns it. The caller sets Target afterwards.
	Insert(key uint64) *Entry
	// ProbeOrInsert combines Probe and Insert into one table walk: it
	// returns the existing entry for key with found=true (updating recency
	// like Probe), or allocates one like Insert and returns it with
	// found=false (the caller sets Target). Predictor update paths use it
	// to avoid paying two lookups per branch.
	ProbeOrInsert(key uint64) (e *Entry, found bool)
	// Capacity returns the table size in entries, or -1 if unbounded.
	Capacity() int
	// Utilization returns the fraction of entries currently valid
	// (∈ [0,1]); unbounded tables report 1.
	Utilization() float64
	// Victim returns the valid entry that Insert(key) would evict, or nil
	// if the insertion would not displace a valid entry. It does not
	// modify the table; the §8.1 shared-table hybrid consults it before
	// replacing entries.
	Victim(key uint64) *Entry
	// Reset clears all entries.
	Reset()
	// Kind returns a short organization name for reports, e.g. "assoc2".
	Kind() string
	// Stats returns the table's behaviour counters and current occupancy.
	Stats() Stats
	// Counts returns the raw insert/eviction/reset counters. The
	// attribution layer reads them around an update to detect whether the
	// insert evicted.
	Counts() (inserts, evictions, resets uint64)
}

func checkPow2(n int, what string) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("table: %s must be a positive power of two, got %d", what, n))
	}
}

// Tagless is a direct-mapped table without tags: the entry selected by the
// low-order key bits is returned whatever pattern wrote it, so different
// patterns interfere — sometimes constructively (§5.2.2).
type Tagless struct {
	slots []Entry
	mask  uint64
	gen   uint32
	live  int // slots holding an entry of the current generation
	stats counters
}

// counters is the shared insert/eviction/reset accounting embedded in every
// table organization.
type counters struct {
	inserts, evictions, resets uint64
}

// counts returns the raw counter values; the Counts methods of the table
// organizations delegate here.
func (c *counters) counts() (inserts, evictions, resets uint64) {
	return c.inserts, c.evictions, c.resets
}

// NewTagless returns a tagless table with the given number of entries
// (a power of two).
func NewTagless(entries int) *Tagless {
	checkPow2(entries, "entries")
	return &Tagless{slots: make([]Entry, entries), mask: uint64(entries - 1)}
}

// Probe returns the slot indexed by key if it holds any prediction. No tag
// comparison is performed.
func (t *Tagless) Probe(key uint64) *Entry {
	e := &t.slots[key&t.mask]
	if !e.valid || e.gen != t.gen {
		return nil
	}
	return e
}

// Insert claims the slot indexed by key.
func (t *Tagless) Insert(key uint64) *Entry {
	e := &t.slots[key&t.mask]
	t.stats.inserts++
	if !e.valid || e.gen != t.gen {
		t.live++
	} else if e.key != key {
		t.stats.evictions++
	}
	e.reset(key)
	e.gen = t.gen
	return e
}

// ProbeOrInsert implements Bounded.
func (t *Tagless) ProbeOrInsert(key uint64) (*Entry, bool) {
	e := &t.slots[key&t.mask]
	if e.valid && e.gen == t.gen {
		return e, true
	}
	e.reset(key)
	e.gen = t.gen
	t.live++
	t.stats.inserts++
	return e, false
}

// Victim implements Bounded.
func (t *Tagless) Victim(key uint64) *Entry {
	e := &t.slots[key&t.mask]
	if !e.valid || e.gen != t.gen {
		return nil
	}
	return e
}

// Capacity implements Bounded.
func (t *Tagless) Capacity() int { return len(t.slots) }

// Utilization implements Bounded in O(1), from the live-slot count.
func (t *Tagless) Utilization() float64 { return float64(t.live) / float64(len(t.slots)) }

// Reset implements Bounded in O(1): bumping the generation makes every
// current entry read as invalid without touching the slot array. Flush-heavy
// simulations and predictor reuse across sweep cells depend on this being
// cheap. On the (unreachable in practice) 2^32nd reset the generation wraps
// and the slots are cleared for real, so ancient entries can never resurrect.
func (t *Tagless) Reset() {
	t.gen++
	t.live = 0
	t.stats.resets++
	if t.gen == 0 {
		clear(t.slots)
	}
}

// Kind implements Bounded.
func (t *Tagless) Kind() string { return "tagless" }

// Counts implements Bounded.
func (t *Tagless) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *Tagless) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: t.Capacity(), Occupancy: t.Utilization(),
		Inserts: t.stats.inserts, Evictions: t.stats.evictions, Resets: t.stats.resets,
	}
}

// SetAssoc is a set-associative table with per-set LRU replacement. Ways=1
// gives a direct-mapped tagged table. Entries within a set are kept in
// recency order (index 0 most recent), which is cheap for the small
// associativities the paper studies (1, 2, 4).
type SetAssoc struct {
	ways      int
	indexBits int
	mask      uint64
	slots     []Entry // sets * ways, set-major
	gen       uint32
	live      int // ways holding an entry of the current generation
	stats     counters
}

// NewSetAssoc returns a table with the given total entries (power of two)
// and associativity (power of two, dividing entries).
func NewSetAssoc(entries, ways int) *SetAssoc {
	checkPow2(entries, "entries")
	checkPow2(ways, "ways")
	if ways > entries {
		panic(fmt.Sprintf("table: ways %d exceeds entries %d", ways, entries))
	}
	sets := entries / ways
	return &SetAssoc{
		ways:      ways,
		indexBits: bits.TrailingZeros(uint(sets)),
		mask:      uint64(sets - 1),
		slots:     make([]Entry, entries),
	}
}

// Ways returns the associativity.
func (t *SetAssoc) Ways() int { return t.ways }

// set returns the slice of ways for key's set.
func (t *SetAssoc) set(key uint64) []Entry {
	i := int(key&t.mask) * t.ways
	return t.slots[i : i+t.ways]
}

// Probe implements Bounded: it compares the full key against each way's tag
// and promotes a hit to most-recently-used.
func (t *SetAssoc) Probe(key uint64) *Entry {
	set := t.set(key)
	for i := range set {
		if set[i].key == key && set[i].valid && set[i].gen == t.gen {
			if i != 0 {
				hit := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = hit
			}
			return &set[0]
		}
	}
	return nil
}

// Insert implements Bounded: the victim is the least recently used way (or
// an invalid way if one exists, which is always the last in recency order).
func (t *SetAssoc) Insert(key uint64) *Entry {
	set := t.set(key)
	victim := set[t.ways-1]
	t.stats.inserts++
	if victim.valid && victim.gen == t.gen {
		t.stats.evictions++
	} else {
		t.live++
	}
	copy(set[1:], set[:t.ways-1])
	set[0] = victim
	set[0].reset(key)
	set[0].gen = t.gen
	return &set[0]
}

// ProbeOrInsert implements Bounded: one walk of the set either promotes the
// hit to most-recently-used (as Probe would) or claims the LRU way (as
// Insert would).
func (t *SetAssoc) ProbeOrInsert(key uint64) (*Entry, bool) {
	set := t.set(key)
	for i := range set {
		if set[i].key == key && set[i].valid && set[i].gen == t.gen {
			if i != 0 {
				hit := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = hit
			}
			return &set[0], true
		}
	}
	victim := set[t.ways-1]
	t.stats.inserts++
	if victim.valid && victim.gen == t.gen {
		t.stats.evictions++
	} else {
		t.live++
	}
	copy(set[1:], set[:t.ways-1])
	set[0] = victim
	set[0].reset(key)
	set[0].gen = t.gen
	return &set[0], false
}

// Victim implements Bounded.
func (t *SetAssoc) Victim(key uint64) *Entry {
	set := t.set(key)
	e := &set[t.ways-1]
	if !e.valid || e.gen != t.gen {
		return nil
	}
	return e
}

// Capacity implements Bounded.
func (t *SetAssoc) Capacity() int { return len(t.slots) }

// Utilization implements Bounded in O(1), from the live-way count.
func (t *SetAssoc) Utilization() float64 { return float64(t.live) / float64(len(t.slots)) }

// Reset implements Bounded in O(1) by generation bump (see Tagless.Reset).
func (t *SetAssoc) Reset() {
	t.gen++
	t.live = 0
	t.stats.resets++
	if t.gen == 0 {
		clear(t.slots)
	}
}

// Kind implements Bounded.
func (t *SetAssoc) Kind() string { return fmt.Sprintf("assoc%d", t.ways) }

// Counts implements Bounded.
func (t *SetAssoc) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *SetAssoc) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: t.Capacity(), Occupancy: t.Utilization(),
		Inserts: t.stats.inserts, Evictions: t.stats.evictions, Resets: t.stats.resets,
	}
}

// fibHash spreads key over a power-of-two array of 2^(64-shift) positions:
// Fibonacci hashing multiplies by 2^64/φ and keeps the top bits, so keys
// that differ only in high bits (concatenated patterns) or only in low bits
// (xor-folded ones) both scatter.
func fibHash(key uint64, shift uint) uint64 { return (key * 0x9E3779B97F4A7C15) >> shift }

// hashShift returns the fibHash shift for an array of n positions (a power
// of two).
func hashShift(n int) uint { return uint(64 - bits.TrailingZeros(uint(n))) }

// FullAssoc is a fully-associative table with true LRU replacement (§5.1).
// Entries live in a slot array that grows on demand up to the capacity and
// is threaded into recency order by int32 links. An open-addressing index
// (Fibonacci hashing, linear probing, kept at most half full) maps each key
// to its slot; an eviction deletes the victim's key by backward shift, so the
// index needs no tombstones. Reset is O(1): it truncates the slot array and
// empties the index by bumping its generation, and a refill to an earlier
// size allocates nothing.
type FullAssoc struct {
	capacity int
	slots    []lruSlot // every slot in use; cap grows to at most capacity
	mru, lru int32     // slot numbers at the ends of the recency list; -1 when empty
	index    []lruRef
	shift    uint   // fibHash shift for len(index)
	gen      uint32 // generation of the live index refs; never 0, so zeroed refs read as empty
	stats    counters
}

// lruSlot is one FullAssoc entry with its recency-list links: prev is the
// next more recently used slot, next the next less recently used; -1 ends
// the list.
type lruSlot struct {
	Entry
	prev, next int32
}

// lruRef is one FullAssoc index position: the slot holding key, live while
// gen is the table's generation.
type lruRef struct {
	key  uint64
	slot int32
	gen  uint32
}

// minFullAssoc is the initial FullAssoc index size and the smallest slot
// array it allocates.
const minFullAssoc = 8

// NewFullAssoc returns a fully-associative LRU table with the given
// capacity in entries (any positive count).
func NewFullAssoc(entries int) *FullAssoc {
	if entries <= 0 {
		panic(fmt.Sprintf("table: capacity must be positive, got %d", entries))
	}
	return &FullAssoc{
		capacity: entries,
		mru:      -1,
		lru:      -1,
		index:    make([]lruRef, minFullAssoc),
		shift:    hashShift(minFullAssoc),
		gen:      1,
	}
}

// lookup returns the slot holding key (-1 if absent) and the index position
// where the probe for key ended.
func (t *FullAssoc) lookup(key uint64) (slot int32, pos uint64) {
	mask := uint64(len(t.index) - 1)
	for i := fibHash(key, t.shift); ; i = (i + 1) & mask {
		r := &t.index[i]
		if r.gen != t.gen {
			return -1, i
		}
		if r.key == key {
			return r.slot, i
		}
	}
}

func (t *FullAssoc) unlink(s int32) {
	n := &t.slots[s]
	if n.prev >= 0 {
		t.slots[n.prev].next = n.next
	} else {
		t.mru = n.next
	}
	if n.next >= 0 {
		t.slots[n.next].prev = n.prev
	} else {
		t.lru = n.prev
	}
}

func (t *FullAssoc) pushFront(s int32) {
	n := &t.slots[s]
	n.prev, n.next = -1, t.mru
	if t.mru >= 0 {
		t.slots[t.mru].prev = s
	} else {
		t.lru = s
	}
	t.mru = s
}

// touch makes slot s the most recently used.
func (t *FullAssoc) touch(s int32) {
	if t.mru != s {
		t.unlink(s)
		t.pushFront(s)
	}
}

// extend appends a slot and returns its number, growing the slot array
// (never past the capacity) and the index as needed.
func (t *FullAssoc) extend() int32 {
	n := len(t.slots)
	if n == cap(t.slots) {
		grown := make([]lruSlot, n, min(max(2*n, minFullAssoc), t.capacity))
		copy(grown, t.slots)
		t.slots = grown
	}
	t.slots = t.slots[:n+1]
	if 2*(n+1) > len(t.index) {
		old := t.index
		t.index = make([]lruRef, 2*len(old))
		t.shift = hashShift(len(t.index))
		for _, r := range old {
			if r.gen == t.gen {
				_, pos := t.lookup(r.key)
				t.index[pos] = r
			}
		}
	}
	return int32(n)
}

// unindex deletes key, which must be present, from the index by backward
// shift: every later ref of its probe cluster that may legally sit in the
// hole moves back into it, leaving the cluster as if key had never been
// inserted.
func (t *FullAssoc) unindex(key uint64) {
	mask := uint64(len(t.index) - 1)
	_, hole := t.lookup(key)
	for j := (hole + 1) & mask; t.index[j].gen == t.gen; j = (j + 1) & mask {
		// The ref at j stays unless the hole lies cyclically between its
		// home position and j.
		if home := fibHash(t.index[j].key, t.shift); (j-home)&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole].gen = 0
}

// claim allocates a slot for key, which is absent, evicting the least
// recently used entry when the table is full.
func (t *FullAssoc) claim(key uint64) *Entry {
	t.stats.inserts++
	var s int32
	if len(t.slots) < t.capacity {
		s = t.extend()
	} else {
		s = t.lru
		t.unlink(s)
		t.unindex(t.slots[s].key)
		t.stats.evictions++
	}
	_, pos := t.lookup(key)
	t.index[pos] = lruRef{key: key, slot: s, gen: t.gen}
	t.pushFront(s)
	e := &t.slots[s].Entry
	e.reset(key)
	return e
}

// Probe implements Bounded.
func (t *FullAssoc) Probe(key uint64) *Entry {
	s, _ := t.lookup(key)
	if s < 0 {
		return nil
	}
	t.touch(s)
	return &t.slots[s].Entry
}

// Insert implements Bounded, evicting the least recently used entry when the
// table is full.
func (t *FullAssoc) Insert(key uint64) *Entry {
	e, found := t.ProbeOrInsert(key)
	if found {
		// Defensive: reuse an existing entry rather than duplicating.
		t.stats.inserts++
		e.reset(key)
	}
	return e
}

// ProbeOrInsert implements Bounded with a single index lookup on a hit.
func (t *FullAssoc) ProbeOrInsert(key uint64) (*Entry, bool) {
	if s, _ := t.lookup(key); s >= 0 {
		t.touch(s)
		return &t.slots[s].Entry, true
	}
	return t.claim(key), false
}

// Victim implements Bounded.
func (t *FullAssoc) Victim(key uint64) *Entry {
	if len(t.slots) < t.capacity {
		return nil
	}
	if s, _ := t.lookup(key); s >= 0 {
		return nil
	}
	return &t.slots[t.lru].Entry
}

// Capacity implements Bounded.
func (t *FullAssoc) Capacity() int { return t.capacity }

// Utilization implements Bounded.
func (t *FullAssoc) Utilization() float64 {
	return float64(len(t.slots)) / float64(t.capacity)
}

// Reset implements Bounded in O(1): the slot array is truncated (keeping its
// storage) and a generation bump empties the index. On the 2^32nd reset the
// generation wraps and the index is cleared for real (see Tagless.Reset).
func (t *FullAssoc) Reset() {
	t.slots = t.slots[:0]
	t.mru, t.lru = -1, -1
	t.stats.resets++
	t.gen++
	if t.gen == 0 {
		clear(t.index)
		t.gen = 1
	}
}

// Kind implements Bounded.
func (t *FullAssoc) Kind() string { return "fullassoc" }

// Counts implements Bounded.
func (t *FullAssoc) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *FullAssoc) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: t.Capacity(), Occupancy: t.Utilization(),
		Inserts: t.stats.inserts, Evictions: t.stats.evictions, Resets: t.stats.resets,
	}
}

// Len returns the number of valid entries.
func (t *FullAssoc) Len() int { return len(t.slots) }

// Unbounded64 is a table without capacity limits, used for the
// limited-precision §4 experiments and as the shadow twin that attributes
// capacity and conflict misses (§5.1). Entries live inline in one
// power-of-two array, placed by Fibonacci hashing with linear probing; the
// array doubles at 3/4 load. Reset is O(1) by generation bump, and a refill
// to an earlier size allocates nothing.
type Unbounded64 struct {
	slots []Entry
	shift uint   // fibHash shift for len(slots)
	n     int    // live entries
	gen   uint32 // generation of the live entries; never 0, so zeroed slots read as empty
	stats counters
}

// minUnbounded is the initial Unbounded64 array size.
const minUnbounded = 16

// NewUnbounded64 returns an empty unbounded table.
func NewUnbounded64() *Unbounded64 {
	return &Unbounded64{
		slots: make([]Entry, minUnbounded),
		shift: hashShift(minUnbounded),
		gen:   1,
	}
}

// find returns key's entry, or the empty slot where its probe ended; the
// result is live (e.gen == t.gen) exactly when key is present.
func (t *Unbounded64) find(key uint64) *Entry {
	mask := uint64(len(t.slots) - 1)
	for i := fibHash(key, t.shift); ; i = (i + 1) & mask {
		if e := &t.slots[i]; e.gen != t.gen || e.key == key {
			return e
		}
	}
}

// claim makes e, the empty slot find returned for key, key's entry,
// doubling the array first if the insertion would pass 3/4 load.
func (t *Unbounded64) claim(e *Entry, key uint64) *Entry {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]Entry, 2*len(old))
		t.shift = hashShift(len(t.slots))
		for i := range old {
			if old[i].gen == t.gen {
				*t.find(old[i].key) = old[i]
			}
		}
		e = t.find(key)
	}
	t.n++
	e.reset(key)
	e.gen = t.gen
	return e
}

// Probe implements Bounded.
func (t *Unbounded64) Probe(key uint64) *Entry {
	if e := t.find(key); e.gen == t.gen {
		return e
	}
	return nil
}

// Insert implements Bounded.
func (t *Unbounded64) Insert(key uint64) *Entry {
	e, found := t.ProbeOrInsert(key)
	if found {
		t.stats.inserts++
		e.reset(key)
	}
	return e
}

// ProbeOrInsert implements Bounded.
func (t *Unbounded64) ProbeOrInsert(key uint64) (*Entry, bool) {
	e := t.find(key)
	if e.gen == t.gen {
		return e, true
	}
	t.stats.inserts++
	return t.claim(e, key), false
}

// Victim implements Bounded: an unbounded table never evicts.
func (t *Unbounded64) Victim(key uint64) *Entry { return nil }

// Capacity implements Bounded (-1: unbounded).
func (t *Unbounded64) Capacity() int { return -1 }

// Utilization implements Bounded.
func (t *Unbounded64) Utilization() float64 { return 1 }

// Reset implements Bounded in O(1) by generation bump, keeping the array
// (see FullAssoc.Reset for the wrap).
func (t *Unbounded64) Reset() {
	t.n = 0
	t.stats.resets++
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// Kind implements Bounded.
func (t *Unbounded64) Kind() string { return "unbounded" }

// Counts implements Bounded.
func (t *Unbounded64) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *Unbounded64) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: -1, Occupancy: 1,
		Inserts: t.stats.inserts, Resets: t.stats.resets,
	}
}

// Len returns the number of patterns stored (the paper quotes pattern counts
// per path length, §5.1).
func (t *Unbounded64) Len() int { return t.n }

// UnboundedStr is the unbounded table over exact byte-string keys used by
// the §3 full-precision predictors, where keys (selector + p full targets)
// exceed 64 bits.
type UnboundedStr struct {
	m     map[string]*Entry
	stats counters
}

// NewUnboundedStr returns an empty table.
func NewUnboundedStr() *UnboundedStr {
	return &UnboundedStr{m: make(map[string]*Entry)}
}

// Probe returns the entry for key or nil. The []byte key avoids allocation
// on lookups.
func (t *UnboundedStr) Probe(key []byte) *Entry { return t.m[string(key)] }

// Insert allocates an entry for key.
func (t *UnboundedStr) Insert(key []byte) *Entry {
	t.stats.inserts++
	e := t.m[string(key)]
	if e == nil {
		e = &Entry{}
		t.m[string(key)] = e
	}
	e.reset(0)
	return e
}

// ProbeOrInsert returns the existing entry for key (found=true) or allocates
// a fresh one (found=false) with a single map lookup on the hit path. The
// map is indexed by string(key) directly so probes never allocate; only a
// genuine insertion materializes the key string.
func (t *UnboundedStr) ProbeOrInsert(key []byte) (*Entry, bool) {
	if e := t.m[string(key)]; e != nil {
		return e, true
	}
	e := &Entry{}
	e.reset(0)
	t.m[string(key)] = e
	t.stats.inserts++
	return e, false
}

// Len returns the number of patterns stored.
func (t *UnboundedStr) Len() int { return len(t.m) }

// Reset clears the table.
func (t *UnboundedStr) Reset() {
	clear(t.m)
	t.stats.resets++
}

// Counts returns the raw behaviour counters (see Bounded.Counts).
func (t *UnboundedStr) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats reports the exact table's behaviour counters (it is not a Bounded,
// but predictors aggregate its stats the same way).
func (t *UnboundedStr) Stats() Stats {
	return Stats{
		Kind: "exact", Capacity: -1, Occupancy: 1,
		Inserts: t.stats.inserts, Resets: t.stats.resets,
	}
}

// New returns a Bounded table of the named organization: "tagless",
// "assoc1", "assoc2", "assoc4" (or any assoc<2^k>), "fullassoc", or
// "unbounded". It is the string form accepted by the CLI tools.
func New(kind string, entries int) (Bounded, error) {
	switch kind {
	case "tagless":
		return NewTagless(entries), nil
	case "fullassoc":
		return NewFullAssoc(entries), nil
	case "unbounded":
		return NewUnbounded64(), nil
	}
	var ways int
	if _, err := fmt.Sscanf(kind, "assoc%d", &ways); err == nil && ways > 0 {
		if ways&(ways-1) != 0 || ways > entries {
			return nil, fmt.Errorf("table: invalid associativity %d for %d entries", ways, entries)
		}
		return NewSetAssoc(entries, ways), nil
	}
	return nil, fmt.Errorf("table: unknown kind %q", kind)
}
