package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

func membership(t testing.TB, addrs ...string) []*backend {
	t.Helper()
	bs, err := newMembership(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func addrsOf(bs []*backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.addr
	}
	return out
}

// The TestRing* names are those of the virtual-node ring's tests; rendezvous
// placement replaced the ring and keeps the properties they pin, so the
// tests check the same properties on the candidate walk.

// TestRingDeterministic: two routers given the same membership in
// different -backends orders agree on every placement and on the full
// failover order — the property that lets any router (or a restarted one)
// re-derive where a session lives.
func TestRingDeterministic(t *testing.T) {
	addrs := []string{"10.0.0.1:9670", "10.0.0.2:9670", "10.0.0.3:9670"}
	m1 := membership(t, addrs...)
	m2 := membership(t, addrs[2], addrs[0], addrs[1])
	for pc := uint32(0); pc < 4096; pc += 7 {
		if c1, c2 := addrsOf(candidates(m1, pc)), addrsOf(candidates(m2, pc)); !slices.Equal(c1, c2) {
			t.Fatalf("pc %#x: walks differ: %v vs %v", pc, c1, c2)
		}
	}
}

// TestRingWalkDistinct: every candidate walk lists every
// backend exactly once, so failover can reach the whole fleet.
func TestRingWalkDistinct(t *testing.T) {
	m := membership(t, "a:1", "b:1", "c:1", "d:1", "e:1")
	for pc := uint32(0); pc < 1000; pc++ {
		walk := addrsOf(candidates(m, pc))
		slices.Sort(walk)
		if !slices.Equal(walk, addrsOf(m)) {
			t.Fatalf("pc %d: walk covers %v, want each of %v once", pc, walk, addrsOf(m))
		}
	}
}

// TestRingStability: dropping one of four backends moves no session
// between survivors (the survivors keep their relative failover order too),
// and the dropped backend's sessions spread over all three survivors.
func TestRingStability(t *testing.T) {
	full := membership(t, "a:1", "b:1", "c:1", "d:1")
	reduced := membership(t, "a:1", "b:1", "c:1")
	inherited := map[string]int{}
	for pc := uint32(1); pc < 1<<16; pc += 131 {
		before := addrsOf(candidates(full, pc))
		after := addrsOf(candidates(reduced, pc))
		if before[0] == "d:1" {
			inherited[after[0]]++
		}
		if want := slices.DeleteFunc(before, func(a string) bool { return a == "d:1" }); !slices.Equal(after, want) {
			t.Fatalf("pc %#x: dropping d:1 changed the survivors' walk %v to %v", pc, want, after)
		}
	}
	for _, a := range addrsOf(reduced) {
		if inherited[a] == 0 {
			t.Errorf("survivor %s inherited none of d:1's sessions: %v", a, inherited)
		}
	}
}

// TestRingSpread: each of three backends owns about a third of the
// keyspace.
func TestRingSpread(t *testing.T) {
	m := membership(t, "10.0.0.1:9670", "10.0.0.2:9670", "10.0.0.3:9670")
	counts := map[*backend]int{}
	const samples = 20000
	for i := 0; i < samples; i++ {
		counts[candidates(m, uint32(i*2654435761))[0]]++
	}
	for _, b := range m {
		if share := float64(counts[b]) / samples; share < 0.28 || share > 0.39 {
			t.Errorf("backend %s owns %.1f%% of the keyspace", b.addr, 100*share)
		}
	}
}

// TestRingMatchesServeSharding: hashPC is FNV-1a over the PC's four
// little-endian bytes. Known values pin it, the address score and one walk,
// so a quiet change cannot slip by (it would silently re-place every session
// in a mixed-version fleet). The name predates serve dropping its own
// FNV-1a shard pinning.
func TestRingMatchesServeSharding(t *testing.T) {
	for _, pc := range []uint32{0, 1, 0xdeadbeef, 0xffffffff} {
		h := fnv.New32a()
		binary.Write(h, binary.LittleEndian, pc)
		if got, want := hashPC(pc), h.Sum32(); got != want {
			t.Fatalf("hashPC(%#x) = %#x, want FNV-1a %#x", pc, got, want)
		}
	}
	for _, c := range []struct {
		pc, hash uint32
	}{
		{0, 0x4b95f515},
		{1, 0xfb69b604},
		{0xdeadbeef, 0x90879fcb},
	} {
		if got := hashPC(c.pc); got != c.hash {
			t.Errorf("hashPC(%#x) = %#x, want %#x", c.pc, got, c.hash)
		}
	}
	if got, want := score(hashPC(0), "127.0.0.1:9670"), uint32(0xcd24092c); got != want {
		t.Errorf("score = %#x, want %#x", got, want)
	}
	m := membership(t, "127.0.0.1:9670", "127.0.0.1:9671", "127.0.0.1:9672")
	want := []string{"127.0.0.1:9670", "127.0.0.1:9672", "127.0.0.1:9671"}
	if got := addrsOf(candidates(m, 0)); !slices.Equal(got, want) {
		t.Errorf("walk for pc 0 = %v, want %v (descending score)", got, want)
	}
}

// TestNewMembershipRejectsBadAddrs: an empty or repeated address is a
// configuration error, whatever its position in the list.
func TestNewMembershipRejectsBadAddrs(t *testing.T) {
	for _, addrs := range [][]string{{"a:1", ""}, {"b:1", "a:1", "b:1"}} {
		if _, err := newMembership(addrs); err == nil {
			t.Errorf("newMembership(%q) accepted a bad membership", addrs)
		}
	}
}

// TestRingEmpty: an empty membership yields no candidates rather than
// panicking, and New refuses to start a router without backends.
func TestRingEmpty(t *testing.T) {
	if got := candidates(nil, 42); len(got) != 0 {
		t.Fatalf("empty membership returned %v", got)
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a router with no backends")
	}
}

func BenchmarkCandidates(b *testing.B) {
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:9670", i+1)
	}
	m := membership(b, addrs...)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		candidates(m, uint32(i))
	}
}
