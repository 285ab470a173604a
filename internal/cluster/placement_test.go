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
// re-derive where a session id lives.
func TestRingDeterministic(t *testing.T) {
	addrs := []string{"10.0.0.1:9670", "10.0.0.2:9670", "10.0.0.3:9670"}
	m1 := membership(t, addrs...)
	m2 := membership(t, addrs[2], addrs[0], addrs[1])
	for id := uint64(0); id < 4096; id += 7 {
		if c1, c2 := addrsOf(candidates(m1, id)), addrsOf(candidates(m2, id)); !slices.Equal(c1, c2) {
			t.Fatalf("id %d: walks differ: %v vs %v", id, c1, c2)
		}
	}
}

// TestRingWalkDistinct: every candidate walk lists every
// backend exactly once, so failover can reach the whole fleet.
func TestRingWalkDistinct(t *testing.T) {
	m := membership(t, "a:1", "b:1", "c:1", "d:1", "e:1")
	for id := uint64(1); id <= 1000; id++ {
		walk := addrsOf(candidates(m, id))
		slices.Sort(walk)
		if !slices.Equal(walk, addrsOf(m)) {
			t.Fatalf("id %d: walk covers %v, want each of %v once", id, walk, addrsOf(m))
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
	for id := uint64(1); id <= 2000; id++ {
		before := addrsOf(candidates(full, id))
		after := addrsOf(candidates(reduced, id))
		if before[0] == "d:1" {
			inherited[after[0]]++
		}
		if want := slices.DeleteFunc(before, func(a string) bool { return a == "d:1" }); !slices.Equal(after, want) {
			t.Fatalf("id %d: dropping d:1 changed the survivors' walk %v to %v", id, want, after)
		}
	}
	for _, a := range addrsOf(reduced) {
		if inherited[a] == 0 {
			t.Errorf("survivor %s inherited none of d:1's sessions: %v", a, inherited)
		}
	}
}

// TestRingSpread: each of three backends owns about a third of the
// sessions. The ids are sequential from 1, as the router assigns them, so
// neighbouring ids must not cluster on one backend either: every window of
// 300 consecutive ids gives each backend at least a fifth of them.
func TestRingSpread(t *testing.T) {
	m := membership(t, "10.0.0.1:9670", "10.0.0.2:9670", "10.0.0.3:9670")
	counts := map[*backend]int{}
	const samples, window = 20000, 300
	owners := make([]*backend, samples+1)
	for id := uint64(1); id <= samples; id++ {
		owners[id] = candidates(m, id)[0]
		counts[owners[id]]++
	}
	for _, b := range m {
		if share := float64(counts[b]) / samples; share < 0.28 || share > 0.39 {
			t.Errorf("backend %s owns %.1f%% of the sessions", b.addr, 100*share)
		}
	}
	for start := 1; start+window <= samples+1; start += window {
		in := map[*backend]int{}
		for _, b := range owners[start : start+window] {
			in[b]++
		}
		for _, b := range m {
			if in[b] < window/5 {
				t.Errorf("ids %d..%d: backend %s owns %d of %d", start, start+window-1, b.addr, in[b], window)
			}
		}
	}
}

// TestRingMatchesServeSharding: hashKey is FNV-1a over the session id's
// eight little-endian bytes. Known values pin it, the address score and one
// walk, so a quiet change cannot slip by (it would silently re-place every
// session in a mixed-version fleet). The name predates placement by session
// id, and serve dropping its own FNV-1a shard pinning.
func TestRingMatchesServeSharding(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeefcafef00d, 1<<64 - 1} {
		h := fnv.New32a()
		binary.Write(h, binary.LittleEndian, id)
		if got, want := hashKey(id), h.Sum32(); got != want {
			t.Fatalf("hashKey(%#x) = %#x, want FNV-1a %#x", id, got, want)
		}
	}
	for _, c := range []struct {
		id   uint64
		hash uint32
	}{
		{0, 0x9be17165},
		{1, 0x3e801244},
		{0xdeadbeefcafef00d, 0x28e8d44e},
	} {
		if got := hashKey(c.id); got != c.hash {
			t.Errorf("hashKey(%#x) = %#x, want %#x", c.id, got, c.hash)
		}
	}
	if got, want := score(hashKey(1), "127.0.0.1:9670"), uint32(0x11092ed9); got != want {
		t.Errorf("score = %#x, want %#x", got, want)
	}
	m := membership(t, "127.0.0.1:9670", "127.0.0.1:9671", "127.0.0.1:9672")
	want := []string{"127.0.0.1:9672", "127.0.0.1:9671", "127.0.0.1:9670"}
	if got := addrsOf(candidates(m, 1)); !slices.Equal(got, want) {
		t.Errorf("walk for session 1 = %v, want %v (descending score)", got, want)
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
	for id := uint64(1); b.Loop(); id++ {
		candidates(m, id)
	}
}
