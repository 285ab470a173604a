package trace

import (
	"sync"
	"sync/atomic"
)

// Frame-buffer pool
//
// The wire hot path (internal/serve, internal/cluster) turns over one payload
// buffer per frame at rates where per-frame allocation is the dominant cost —
// the same observation that makes DPDK-style dataplanes allocate packet
// buffers from a mempool instead of the heap. BufferPool is that mempool: a
// small ladder of size classes, each backed by a sync.Pool, handing out
// refcounted PooledBufs.
//
// Ownership rules (the "release contract"):
//
//   - Get returns a buffer with one reference; whoever holds the last
//     reference must Release it or the buffer is merely garbage-collected
//     instead of reused (correct, but slow).
//   - Retain adds a reference before handing the buffer to another holder
//     (a FrameLog, a reply batch); each holder Releases independently.
//   - After the final Release the bytes must not be touched. Bytes and
//     Release check the reference count and panic on use-after-release and
//     double-release — cheap (one atomic load) and loud, instead of the
//     silent cross-session corruption a recycled buffer would cause.
//
// Requests above the largest class are served by a plain allocation that is
// never pooled, so a hostile length can not pin a huge buffer in the pool —
// the capacity ladder is the cap.

// poolClasses is the capacity ladder: every power of two from 512 B to
// 1 MiB. Acks and control frames land in the smallest class; the largest
// matches the serve layer's default 1 MiB frame payload limit. A retained
// frame (FrameLog) pins its whole class capacity, so the steps are fine:
// any payload past 512 B fills more than half of its buffer.
var poolClasses = [...]int{
	512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10,
	32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20,
}

// PooledBuf is one refcounted buffer borrowed from a BufferPool. The zero
// reference state is "released"; all methods are nil-safe so optional
// ownership plumbs through without branches at the call sites.
type PooledBuf struct {
	data  []byte
	pool  *BufferPool
	class int8 // index into poolClasses; -1 for oversize one-shot buffers
	refs  atomic.Int32
}

// Bytes returns the buffer's backing slice (capacity of its class, length as
// requested from Get). It panics if the buffer has been released.
func (b *PooledBuf) Bytes() []byte {
	if b == nil {
		return nil
	}
	if b.refs.Load() <= 0 {
		panic("trace: pooled buffer used after release")
	}
	return b.data
}

// Retain adds a reference: the buffer now needs one more Release before it
// returns to the pool. It panics if the buffer has already been released.
func (b *PooledBuf) Retain() {
	if b == nil {
		return
	}
	if b.refs.Add(1) <= 1 {
		panic("trace: pooled buffer retained after release")
	}
}

// Release drops one reference, returning the buffer to its pool when the last
// holder lets go. It panics on double-release.
func (b *PooledBuf) Release() {
	if b == nil {
		return
	}
	n := b.refs.Add(-1)
	if n < 0 {
		panic("trace: pooled buffer double release")
	}
	if n == 0 && b.class >= 0 {
		b.pool.put(b)
	}
}

// BufferPool is a size-classed pool of frame payload buffers. The zero value
// is not usable; create with NewBufferPool. A nil *BufferPool is a valid
// "pooling disabled" value: Get then falls back to plain allocation.
type BufferPool struct {
	classes [len(poolClasses)]sync.Pool
	hits    atomic.Uint64
	misses  atomic.Uint64

	// onHit/onMiss mirror the counters into an external stats sink (the
	// serve layer's telemetry registry). Nil is no-op.
	onHit  func()
	onMiss func()
}

// NewBufferPool returns an empty pool.
func NewBufferPool() *BufferPool { return &BufferPool{} }

// OnStats installs per-Get observers: hit fires when Get reuses a pooled
// buffer, miss when it allocates (first use of a class, pool drained by GC,
// or an oversize request). Either may be nil.
func (p *BufferPool) OnStats(hit, miss func()) { p.onHit, p.onMiss = hit, miss }

// Stats returns the cumulative hit/miss counts.
func (p *BufferPool) Stats() (hits, misses uint64) {
	if p == nil {
		return 0, 0
	}
	return p.hits.Load(), p.misses.Load()
}

// classFor returns the smallest class index whose capacity holds n, or -1
// when n exceeds the ladder.
func classFor(n int) int {
	for c, size := range poolClasses {
		if n <= size {
			return c
		}
	}
	return -1
}

// Get returns a buffer whose Bytes() has length n, with one reference held
// by the caller. On a nil pool, or when n exceeds the largest class, the
// buffer is freshly allocated and will not be pooled on Release.
func (p *BufferPool) Get(n int) *PooledBuf {
	if p == nil {
		b := &PooledBuf{data: make([]byte, n), class: -1}
		b.refs.Store(1)
		return b
	}
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		if p.onMiss != nil {
			p.onMiss()
		}
		b := &PooledBuf{data: make([]byte, n), pool: p, class: -1}
		b.refs.Store(1)
		return b
	}
	if v := p.classes[c].Get(); v != nil {
		b := v.(*PooledBuf)
		b.data = b.data[:n]
		b.refs.Store(1)
		p.hits.Add(1)
		if p.onHit != nil {
			p.onHit()
		}
		return b
	}
	p.misses.Add(1)
	if p.onMiss != nil {
		p.onMiss()
	}
	b := &PooledBuf{data: make([]byte, n, poolClasses[c]), pool: p, class: int8(c)}
	b.refs.Store(1)
	return b
}

// put returns a fully released buffer to its class.
func (p *BufferPool) put(b *PooledBuf) {
	b.data = b.data[:cap(b.data)]
	p.classes[b.class].Put(b)
}
