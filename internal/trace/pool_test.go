package trace

import (
	"bytes"
	"io"
	"testing"
)

// mustPanic asserts that fn panics with the given message.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

func TestBufferPoolClassLadder(t *testing.T) {
	p := NewBufferPool()
	for _, c := range []struct{ n, capacity int }{
		{0, 512}, {1, 512}, {512, 512}, {513, 1 << 10}, {1 << 10, 1 << 10},
		{1<<10 + 1, 2 << 10}, {3000, 4 << 10}, {11 << 10, 16 << 10},
		{32 << 10, 32 << 10}, {44 << 10, 64 << 10}, {128<<10 + 1, 256 << 10},
		{1 << 20, 1 << 20},
	} {
		b := p.Get(c.n)
		if got := len(b.Bytes()); got != c.n {
			t.Fatalf("Get(%d) length %d", c.n, got)
		}
		if got := cap(b.Bytes()); got != c.capacity {
			t.Fatalf("Get(%d) capacity %d, want class capacity %d", c.n, got, c.capacity)
		}
		b.Release()
	}
	if got := classFor(1<<20 + 1); got != -1 {
		t.Fatalf("classFor(1 MiB + 1) = %d, want -1 (oversize)", got)
	}
}

func TestBufferPoolRecyclesAndCountsStats(t *testing.T) {
	p := NewBufferPool()
	var obsHits, obsMisses int
	p.OnStats(func() { obsHits++ }, func() { obsMisses++ })

	b := p.Get(100)
	b.Release()
	b2 := p.Get(200) // same 512 class; single-goroutine sync.Pool reuses it
	if &b2.Bytes()[0] != &b.data[0] {
		t.Log("pool did not recycle (GC ran mid-test); stats still must add up")
	}
	b2.Release()

	hits, misses := p.Stats()
	if hits+misses != 2 {
		t.Fatalf("hits %d + misses %d != 2 gets", hits, misses)
	}
	if misses < 1 {
		t.Fatalf("first Get of a class must miss (hits %d, misses %d)", hits, misses)
	}
	if int(hits) != obsHits || int(misses) != obsMisses {
		t.Fatalf("OnStats observers (%d, %d) disagree with Stats (%d, %d)",
			obsHits, obsMisses, hits, misses)
	}
}

func TestBufferPoolOversizeNeverPooled(t *testing.T) {
	p := NewBufferPool()
	huge := poolClasses[len(poolClasses)-1] + 1
	b := p.Get(huge)
	if b.class != -1 {
		t.Fatalf("oversize buffer got class %d", b.class)
	}
	if len(b.Bytes()) != huge {
		t.Fatalf("oversize length %d, want %d", len(b.Bytes()), huge)
	}
	b.Release() // must not enter the pool (and must not panic)
	_, misses := p.Stats()
	if misses != 1 {
		t.Fatalf("oversize Get recorded %d misses, want 1", misses)
	}
}

func TestNilPoolFallsBackToAllocation(t *testing.T) {
	var p *BufferPool
	b := p.Get(64)
	if len(b.Bytes()) != 64 {
		t.Fatalf("nil-pool Get length %d", len(b.Bytes()))
	}
	b.Release()
	if hits, misses := p.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("nil-pool stats (%d, %d)", hits, misses)
	}
}

func TestNilPooledBufIsSafe(t *testing.T) {
	var b *PooledBuf
	if b.Bytes() != nil {
		t.Fatal("nil buffer returned bytes")
	}
	b.Retain()
	b.Release() // all no-ops
}

func TestPooledBufDoubleReleasePanics(t *testing.T) {
	b := NewBufferPool().Get(8)
	b.Release()
	mustPanic(t, "trace: pooled buffer double release", b.Release)
}

func TestPooledBufUseAfterReleasePanics(t *testing.T) {
	b := NewBufferPool().Get(8)
	b.Release()
	mustPanic(t, "trace: pooled buffer used after release", func() { b.Bytes() })
}

func TestPooledBufRetainAfterReleasePanics(t *testing.T) {
	b := NewBufferPool().Get(8)
	b.Release()
	mustPanic(t, "trace: pooled buffer retained after release", b.Retain)
}

func TestPooledBufReleaseAfterRetain(t *testing.T) {
	b := NewBufferPool().Get(8)
	b.Retain()
	b.Release() // drops the retain; one reference left
	if got := len(b.Bytes()); got != 8 {
		t.Fatalf("buffer dead after balanced retain/release (len %d)", got)
	}
	b.Release()
	mustPanic(t, "trace: pooled buffer used after release", func() { b.Bytes() })
}

func TestFrameReleaseIsIdempotentAndCopyDetaches(t *testing.T) {
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	fw.WriteFrame(17, []byte("payload"))
	fw.Flush()

	fr := NewPooledFrameReader(bytes.NewReader(stream.Bytes()), 0, NewBufferPool())
	f, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	cp := f.Copy()
	f.Release()
	f.Release() // second release is a no-op: buf was cleared
	if string(cp) != "payload" {
		t.Fatalf("copy %q after release", cp)
	}

	// Retain keeps the payload alive across another holder's release.
	fr = NewPooledFrameReader(bytes.NewReader(stream.Bytes()), 0, NewBufferPool())
	f, err = fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	f.Retain()
	buf := f.Buffer()
	f.Release()
	if string(buf.Bytes()[:7]) == "" {
		t.Fatal("unreachable")
	}
	buf.Release()
}

// repeatReader replays one byte sequence forever, so a frame reader can be
// driven in steady state without the test allocating per read.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestPooledFrameReadZeroAllocs pins the pooled read path's steady state:
// once the pool is warm, reading and releasing frames allocates nothing —
// the property the serve and cluster hot paths are built on.
func TestPooledFrameReadZeroAllocs(t *testing.T) {
	payload := AppendRecords(nil, genTrace(2048))
	var one bytes.Buffer
	fw := NewFrameWriter(&one)
	fw.WriteFrame(17, payload)
	fw.Flush()

	fr := NewPooledFrameReader(&repeatReader{data: one.Bytes()}, 0, NewBufferPool())
	read := func() {
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	read() // warm the pool and the reader's scratch
	if avg := testing.AllocsPerRun(200, read); avg != 0 {
		t.Fatalf("pooled frame read allocates %.1f times per frame, want 0", avg)
	}
}

// TestVectoredAckWriteZeroAllocs pins the vectored write path's steady
// state: batching small (inlined) and large (spliced, pooled) frames and
// flushing them costs no allocations per batch.
func TestVectoredAckWriteZeroAllocs(t *testing.T) {
	pool := NewBufferPool()
	big := AppendRecords(nil, genTrace(512)) // > inlineLimit, gets spliced
	ack1, ack2 := []byte{1, 2, 3}, []byte{4, 5, 6}
	var fb FrameBatcher
	batch := func() {
		fb.Add(0x21, ack1, nil) // ack-sized, inlined
		fb.Add(0x21, ack2, nil)
		pb := pool.Get(len(big))
		copy(pb.Bytes(), big)
		fb.Add(0x22, pb.Bytes(), pb) // spliced; batcher releases it
		if err := fb.Flush(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	batch() // warm the arena, vecs, and pool
	if avg := testing.AllocsPerRun(200, batch); avg != 0 {
		t.Fatalf("vectored frame write allocates %.1f times per batch, want 0", avg)
	}
}
