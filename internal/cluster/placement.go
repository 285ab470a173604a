package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Placement places a session by rendezvous (highest-random-weight) hashing
// of its router session id, as soon as the session opens. Every backend
// scores the session and the candidates are the backends in descending
// score, so the order depends only on the membership and the id:
//
//   - any router given the same membership derives the same order for an
//     id, whatever order -backends lists;
//   - the first candidate owns the session and the rest are its failover
//     order, so a dead backend's sessions spread over all survivors;
//   - dropping a backend moves only the sessions it owned.
//
// A session's Summary depends only on its own record stream, so placement is
// free to trade locality across sessions for determinism and spread, and it
// needs nothing of the stream: the router dials before the first frame.

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashKey mixes a session id: FNV-1a over its eight little-endian bytes.
func hashKey(id uint64) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < 8; i++ {
		h ^= uint32(id>>(8*i)) & 0xff
		h *= fnvPrime32
	}
	return h
}

// score is a backend's rendezvous weight for a session whose key hash is h:
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
// rendezvous order for session id: descending score, ties broken by
// address. The slice is freshly allocated per call.
func candidates(members []*backend, id uint64) []*backend {
	h := hashKey(id)
	out := slices.Clone(members)
	// members is sorted by address, so a stable sort breaks ties by address.
	slices.SortStableFunc(out, func(x, y *backend) int {
		return cmp.Compare(score(h, y.addr), score(h, x.addr))
	})
	return out
}
