package trace

import (
	"bytes"
	"testing"
)

func mustAppend(t *testing.T, l *FrameLog, seq uint64, payload []byte) {
	t.Helper()
	if err := l.Append(seq, payload, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLogOrderAndLookup(t *testing.T) {
	l := NewFrameLog(0) // <=0 budget is unbounded
	if err := l.Append(2, []byte("x"), nil); err == nil {
		t.Fatal("gap append accepted")
	}
	mustAppend(t, l, 1, []byte("a"))
	mustAppend(t, l, 2, []byte("bb"))
	if err := l.Append(2, []byte("dup"), nil); err == nil {
		t.Fatal("duplicate append accepted")
	}
	if got := l.Max(); got != 2 {
		t.Fatalf("max %d, want 2", got)
	}
	if p1, _ := l.Get(1); !bytes.Equal(p1, []byte("a")) {
		t.Fatal("lookup returned wrong payloads")
	}
	if p2, _ := l.Get(2); !bytes.Equal(p2, []byte("bb")) {
		t.Fatal("lookup returned wrong payloads")
	}
	if p3, _ := l.Get(3); p3 != nil {
		t.Fatal("out-of-range lookup returned a payload")
	}
	if p0, _ := l.Get(0); p0 != nil {
		t.Fatal("out-of-range lookup returned a payload")
	}
	if frames, b := l.Retained(); frames != 2 || b != 3 {
		t.Fatalf("retained (%d, %d), want (2, 3)", frames, b)
	}
}

func TestFrameLogEvictionIsOneWay(t *testing.T) {
	l := NewFrameLog(5)
	mustAppend(t, l, 1, []byte("aaa"))
	mustAppend(t, l, 2, []byte("bbb")) // 6 bytes retained, over the 5 budget

	// Nothing acked yet: nothing may be evicted, replay stays possible.
	if f, _ := l.Ack(0); f != 0 {
		t.Fatalf("evicted %d unacked frames", f)
	}
	if !l.Complete() {
		t.Fatal("log incomplete before any eviction")
	}

	// Ack frame 1: it becomes evictable and the budget forces it out.
	f, b := l.Ack(1)
	if f != 1 || b != 3 {
		t.Fatalf("ack evicted (%d, %d), want (1, 3)", f, b)
	}
	if l.Complete() {
		t.Fatal("log still claims complete after eviction")
	}
	if p1, _ := l.Get(1); p1 != nil {
		t.Fatal("evicted payload still retrievable")
	}
	if p2, _ := l.Get(2); !bytes.Equal(p2, []byte("bbb")) {
		t.Fatal("unacked payload evicted")
	}
	if got := l.Max(); got != 2 {
		t.Fatalf("max %d after eviction, want 2", got)
	}
}

func TestFrameLogUnackedNeverEvicted(t *testing.T) {
	l := NewFrameLog(1)
	for seq := uint64(1); seq <= 10; seq++ {
		mustAppend(t, l, seq, []byte("payload"))
	}
	// Ack 4: frames 1..4 are evictable; 5..10 must survive any budget.
	l.Ack(4)
	for seq := uint64(5); seq <= 10; seq++ {
		if p, _ := l.Get(seq); p == nil {
			t.Fatalf("unacked frame %d evicted", seq)
		}
	}
	if p4, _ := l.Get(4); p4 != nil {
		t.Fatal("acked frame survived a 1-byte budget")
	}
}

func TestFrameLogUnboundedNeverEvicts(t *testing.T) {
	l := NewFrameLog(-1)
	for seq := uint64(1); seq <= 100; seq++ {
		mustAppend(t, l, seq, make([]byte, 1024))
	}
	if f, _ := l.Ack(100); f != 0 {
		t.Fatalf("unbounded log evicted %d frames", f)
	}
	if !l.Complete() {
		t.Fatal("unbounded log incomplete")
	}
}

// TestFrameLogReleaseContract: the log owns every appended reference and
// hands each back to the pool exactly once, whether by Ack eviction or by
// Release; a refused Append leaves the reference with the caller.
func TestFrameLogReleaseContract(t *testing.T) {
	const frames, size = 10, 1000
	pool := NewBufferPool()
	l := NewFrameLog(3500)
	bufs := make([]*PooledBuf, frames)
	for i := range bufs {
		b := pool.Get(size)
		bufs[i] = b
		if err := l.Append(uint64(i+1), b.Bytes(), b); err != nil {
			t.Fatal(err)
		}
	}

	stray := pool.Get(size)
	if err := l.Append(frames+2, stray.Bytes(), stray); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if got := stray.refs.Load(); got != 1 {
		t.Fatalf("refused append left %d references, want the caller's 1", got)
	}
	stray.Release()

	// 10000 bytes over a 3500 budget with 1..6 acked: frames 1..6 go.
	if f, b := l.Ack(6); f != 6 || b != 6*size {
		t.Fatalf("ack evicted (%d, %d), want (6, %d)", f, b, 6*size)
	}
	for i, b := range bufs {
		want := int32(1)
		if i < 6 {
			want = 0
		}
		if got := b.refs.Load(); got != want {
			t.Fatalf("after ack: frame %d holds %d references, want %d", i+1, got, want)
		}
	}
	if got := l.Release(); got != 4*size {
		t.Fatalf("release returned %d bytes, want %d", got, 4*size)
	}
	for i, b := range bufs {
		if got := b.refs.Load(); got != 0 {
			t.Fatalf("after release: frame %d holds %d references", i+1, got)
		}
	}
	for seq := uint64(1); seq <= frames; seq++ {
		if p, b := l.Get(seq); p != nil || b != nil {
			t.Fatalf("Get(%d) returned a payload after Release", seq)
		}
	}
	l.Release() // a second Release has nothing left to drop (and must not panic)

	// The released buffers went back to their class: fetching it again hits.
	hits, _ := pool.Stats()
	for range frames {
		pool.Get(size).Release()
	}
	if after, _ := pool.Stats(); after <= hits {
		t.Fatalf("pool hits %d -> %d: released frames were not recycled", hits, after)
	}
}
