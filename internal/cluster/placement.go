package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Placement places a session by rendezvous (highest-random-weight) hashing
// of the FNV-1a hash of its first record's PC. Every backend scores the
// session and the candidates are the backends in descending score, so the
// order depends only on the membership and the PC:
//
//   - every router derives the same order, whatever order -backends lists;
//   - the first candidate owns the session and the rest are its failover
//     order, so a dead backend's sessions spread over all survivors;
//   - dropping a backend moves only the sessions it owned.
//
// A session's Summary depends only on its own record stream, so placement is
// free to trade locality across sessions for determinism and spread.

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashPC mixes a PC: FNV-1a over its four little-endian bytes.
func hashPC(pc uint32) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < 4; i++ {
		h ^= pc >> (8 * i) & 0xff
		h *= fnvPrime32
	}
	return h
}

// score is a backend's rendezvous weight for a session whose PC hash is h:
// the FNV-1a hash continued over the backend's address, finished with
// murmur3's fmix32 so addresses that differ only in their last bytes still
// spread over the whole range.
func score(h uint32, addr string) uint32 {
	for i := 0; i < len(addr); i++ {
		h ^= uint32(addr[i])
		h *= fnvPrime32
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// newMembership validates the configured backend addresses and returns their
// backends sorted by address, the order candidates' tie-break relies on.
func newMembership(addrs []string) ([]*backend, error) {
	sorted := slices.Clone(addrs)
	slices.Sort(sorted)
	bs := make([]*backend, len(sorted))
	for i, addr := range sorted {
		if addr == "" {
			return nil, errors.New("cluster: empty backend address")
		}
		if i > 0 && addr == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", addr)
		}
		bs[i] = newBackend(addr)
	}
	return bs, nil
}

// candidates returns every backend of the address-sorted membership in
// rendezvous order for pc: descending score, ties broken by address. The
// slice is freshly allocated per call.
func candidates(members []*backend, pc uint32) []*backend {
	h := hashPC(pc)
	out := slices.Clone(members)
	// members is sorted by address, so a stable sort breaks ties by address.
	slices.SortStableFunc(out, func(x, y *backend) int {
		return cmp.Compare(score(h, y.addr), score(h, x.addr))
	})
	return out
}
