package history

import (
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
)

// trackSpecs enumerates the spec space the simulator actually sweeps: every
// scheme, path lengths through the paper's range, with the paper's b(p)
// choice plus a few off-nominal widths and start bits. For the interleaved
// schemes, whose incoming target is deposited a field byte at a time, it
// adds every (p, b) with p*b <= 32 at start bits 0 and 2, so every deposit
// byte (field bits 24..31 are reachable only at p = 1) and every column
// count up to 32 is exercised.
func trackSpecs() []Spec {
	var specs []Spec
	for _, scheme := range []bits.Scheme{bits.Concat, bits.Straight, bits.Reverse, bits.PingPong} {
		for p := 1; p <= 12; p++ {
			specs = append(specs, Spec{
				PathLength: p, Bits: BitsForPath(p), StartBit: 2, Scheme: scheme,
			})
		}
		specs = append(specs,
			Spec{PathLength: 4, Bits: 3, StartBit: 0, Scheme: scheme},
			Spec{PathLength: 6, Bits: 2, StartBit: 5, Scheme: scheme},
			Spec{PathLength: 2, Bits: 12, StartBit: 1, Scheme: scheme},
		)
	}
	for _, scheme := range []bits.Scheme{bits.Straight, bits.Reverse} {
		for p := 1; p <= 32; p++ {
			for b := 1; p*b <= 32; b++ {
				for _, start := range []int{0, 2} {
					specs = append(specs, Spec{PathLength: p, Bits: b, StartBit: start, Scheme: scheme})
				}
			}
		}
	}
	return specs
}

// TestTrackConcurrent builds tracking registers for every spec from several
// goroutines at once, as parallel sweep lanes do: the shared deposit tables
// are built on first use and must reach every goroutine intact.
func TestTrackConcurrent(t *testing.T) {
	specs := trackSpecs()
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(g, 29))
			scratch := make([]uint32, 0, 32)
			for _, s := range specs {
				tracked, plain := NewRegister(s.PathLength), NewRegister(s.PathLength)
				tracked.Track(s)
				for i := 0; i < 2*s.PathLength; i++ {
					target := rng.Uint32()
					tracked.Push(target)
					plain.Push(target)
				}
				if got, want := s.Pattern(tracked, scratch), s.Pattern(plain, scratch); got != want {
					t.Errorf("%+v: tracked pattern %#x, reassembled %#x", s, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTrackedPatternMatchesReassembly is the differential test behind the
// incremental-pattern fast path: a tracking register must report exactly the
// pattern a non-tracking register reassembles from its targets, after every
// single push. PingPong rejects tracking, so there the test degenerates to
// both sides using reassembly — still a valid (if trivial) comparison, and it
// pins that Track does not corrupt state for untrackable specs.
func TestTrackedPatternMatchesReassembly(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	scratch := make([]uint32, 0, 32)
	for _, s := range trackSpecs() {
		tracked := NewRegister(s.PathLength)
		tracked.Track(s)
		plain := NewRegister(s.PathLength)
		if tracked.Tracks(s) == (s.Scheme == bits.PingPong) {
			t.Errorf("%+v: Tracks = %v", s, tracked.Tracks(s))
		}
		for i := 0; i < 500; i++ {
			target := rng.Uint32()
			tracked.Push(target)
			plain.Push(target)
			got := s.Pattern(tracked, scratch)
			want := s.Pattern(plain, scratch)
			if got != want {
				t.Fatalf("%+v: push %d: tracked pattern %#x, reassembled %#x",
					s, i, got, want)
			}
		}
	}
}

// TestTrackMidStream pins that Track on a register with existing contents
// replays them: the maintained pattern must immediately equal the
// reassembled one, not start from a cleared state.
func TestTrackMidStream(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 17))
	scratch := make([]uint32, 0, 32)
	for _, s := range trackSpecs() {
		if s.Scheme == bits.PingPong {
			continue
		}
		r := NewRegister(s.PathLength)
		for i := 0; i < 37; i++ {
			r.Push(rng.Uint32())
		}
		plain := NewRegister(s.PathLength)
		for i := s.PathLength - 1; i >= 0; i-- {
			plain.Push(r.Recent(i))
		}
		r.Track(s)
		if got, want := s.Pattern(r, scratch), s.Pattern(plain, scratch); got != want {
			t.Fatalf("%+v: after mid-stream Track: pattern %#x, want %#x", s, got, want)
		}
	}
}

// TestFileTracksFutureRegisters ensures File.Track applies to registers
// materialized after the call, not just existing ones.
func TestFileTracksFutureRegisters(t *testing.T) {
	s := DefaultSpec(4)
	f := NewFile(2, 4)
	f.Get(0x100) // exists before Track
	f.Track(s)
	f.Get(0x200) // created after Track
	for _, pc := range []uint32{0x100, 0x200} {
		if r := f.Get(pc); !r.Tracks(s) {
			t.Errorf("register for pc %#x not tracking after File.Track", pc)
		}
	}
	// Reset drops the registers; replacements must track too.
	f.Reset()
	if r := f.Get(0x300); !r.Tracks(s) {
		t.Error("register created after Reset not tracking")
	}
}

// TestTrackRejectsWideSpecs pins the guard conditions: tracking must stay
// off when the pattern would not fit the 32-bit fast path or the spec does
// not match the register.
func TestTrackRejectsWideSpecs(t *testing.T) {
	cases := []struct {
		p    int
		spec Spec
	}{
		{4, Spec{PathLength: 4, Bits: 9, StartBit: 2, Scheme: bits.Reverse}}, // 36 bits > 32
		{4, Spec{PathLength: 5, Bits: 4, StartBit: 2, Scheme: bits.Reverse}}, // depth mismatch
		{4, Spec{PathLength: 4, Bits: 0, StartBit: 2, Scheme: bits.Reverse}}, // zero width
		{0, Spec{PathLength: 0, Bits: 4, StartBit: 2, Scheme: bits.Reverse}}, // BTB case
	}
	for _, c := range cases {
		r := NewRegister(c.p)
		r.Track(c.spec)
		if r.Tracks(c.spec) {
			t.Errorf("register depth %d accepted spec %+v", c.p, c.spec)
		}
	}
}

// TestRegisterEqualAndCopyFrom pins the register-state compare and copy the
// batched engine shares histories with: Equal looks at contents, not ring
// position or tracking, and a register copied into keeps its own tracking
// with a pattern that follows the copied contents, whether the source
// tracked the same spec, another one, or none.
func TestRegisterEqualAndCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	scratch := make([]uint32, 0, 32)
	for _, s := range trackSpecs() {
		other := s
		other.Bits, other.StartBit = 1, 3
		srcs := []*Register{NewRegister(s.PathLength), NewRegister(s.PathLength), NewRegister(s.PathLength)}
		srcs[0].Track(s)
		srcs[1].Track(other)
		// Ring positions differ: the sources take extra pushes first.
		for i, src := range srcs {
			for j := 0; j < i+s.PathLength; j++ {
				src.Push(rng.Uint32())
			}
		}
		last := make([]uint32, s.PathLength)
		for i := range last {
			last[i] = rng.Uint32()
			for _, src := range srcs {
				src.Push(last[i])
			}
		}
		for i, src := range srcs {
			if !src.Equal(srcs[0]) {
				t.Fatalf("%+v: source %d holds the same targets but is not Equal", s, i)
			}
			dst := NewRegister(s.PathLength)
			dst.Track(s)
			dst.Push(rng.Uint32()) // a stale pattern must not survive the copy
			dst.CopyFrom(src)
			if !dst.Equal(src) {
				t.Fatalf("%+v: copy from source %d is not Equal to it", s, i)
			}
			for k := 0; k < 3; k++ {
				if got, want := s.Pattern(dst, scratch), s.Pattern(srcs[0], scratch); got != want {
					t.Fatalf("%+v: copy from source %d, push %d: pattern %#x, want %#x", s, i, k, got, want)
				}
				target := rng.Uint32()
				dst.Push(target)
				srcs[0].Push(target)
				srcs[1].Push(target)
				srcs[2].Push(target)
			}
		}
		if s.PathLength > 0 {
			srcs[2].Push(rng.Uint32())
			if srcs[2].Equal(srcs[0]) {
				t.Fatalf("%+v: registers with different newest targets are Equal", s)
			}
		}
		if NewRegister(s.PathLength).Equal(NewRegister(s.PathLength + 1)) {
			t.Fatalf("%+v: registers of different depths are Equal", s)
		}
	}
}

// TestKeyRunMatchesKeyAndPush checks the bulk key path against the
// per-branch one: over every swept spec, both key operations, p = 0 and
// runs shorter and longer than the register, KeyRun on a tracking register
// and on a plain one yields the keys Spec.Key gives branch by branch, and
// leaves the register holding what Push would have left.
func TestKeyRunMatchesKeyAndPush(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 31))
	scratch := make([]uint32, 0, 64)
	specs := append(trackSpecs(), Spec{})
	for _, s := range specs {
		for _, op := range []KeyOp{OpXor, OpConcat} {
			s.Op = op
			for _, track := range []bool{true, false} {
				bulk, ref := NewRegister(s.PathLength), NewRegister(s.PathLength)
				if track {
					bulk.Track(s)
				}
				for run := 0; run < 4; run++ {
					n := rng.IntN(3*s.PathLength + 3)
					pcs, targets := make([]uint32, n), make([]uint32, n)
					for j := range pcs {
						pcs[j], targets[j] = rng.Uint32()&^3, rng.Uint32()
					}
					keys := make([]uint64, n)
					bulk.KeyRun(s, pcs, targets, keys, scratch)
					for j, pc := range pcs {
						if want := s.Key(ref, pc, scratch); keys[j] != want {
							t.Fatalf("%+v track=%v run %d branch %d: key %#x, want %#x", s, track, run, j, keys[j], want)
						}
						ref.Push(targets[j])
					}
					if !bulk.Equal(ref) {
						t.Fatalf("%+v track=%v run %d: register %v, want %v", s, track, run, bulk.Targets(nil), ref.Targets(nil))
					}
					if track && bulk.Tracks(s) && bulk.TrackedPattern() != s.Pattern(ref, scratch) {
						t.Fatalf("%+v run %d: tracked pattern %#x, want %#x", s, run, bulk.TrackedPattern(), s.Pattern(ref, scratch))
					}
				}
			}
		}
	}
}

// TestRollingSumMatchesContents: the rolling hash a summed register keeps on
// every push equals the sum computed from its contents, Σ Recent(i)·B^i,
// across path lengths, resets and copies, so equal contents always place an
// exact key alike.
func TestRollingSumMatchesContents(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	want := func(r *Register) uint64 {
		var s, pow uint64 = 0, 1
		for i := 0; i < r.Depth(); i++ {
			s += uint64(r.Recent(i)) * pow
			pow *= sumMul
		}
		return s
	}
	for p := 0; p <= 20; p++ {
		r := NewRegister(p)
		r.Push(7) // contents from before the hash is kept
		r.TrackSum()
		other := NewRegister(p)
		other.TrackSum()
		for i := range 200 {
			switch i {
			case 90:
				r.Reset()
			case 150:
				other.CopyFrom(r)
				if other.Sum() != r.Sum() {
					t.Fatalf("p=%d: CopyFrom left sum %#x, source %#x", p, other.Sum(), r.Sum())
				}
			}
			r.Push(rng.Uint32())
			if got, w := r.Sum(), want(r); got != w {
				t.Fatalf("p=%d, push %d: Sum = %#x, contents give %#x", p, i, got, w)
			}
		}
	}
}
