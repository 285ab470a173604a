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
