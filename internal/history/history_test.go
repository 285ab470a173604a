package history

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/oocsb/ibp/internal/bits"
)

func TestRegisterPushOrder(t *testing.T) {
	r := NewRegister(4)
	for _, v := range []uint32{4, 8, 12, 16, 20} {
		r.Push(v)
	}
	got := r.Targets(nil)
	want := []uint32{20, 16, 12, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Targets = %v, want %v", got, want)
		}
	}
	if r.Recent(0) != 20 || r.Recent(3) != 8 {
		t.Errorf("Recent: %d, %d", r.Recent(0), r.Recent(3))
	}
}

func TestRegisterZeroDepth(t *testing.T) {
	r := NewRegister(0)
	r.Push(100) // must not panic
	if got := r.Targets(nil); len(got) != 0 {
		t.Errorf("zero-depth register returned targets %v", got)
	}
	if r.Depth() != 0 {
		t.Errorf("Depth = %d", r.Depth())
	}
}

func TestRegisterInitialZeros(t *testing.T) {
	r := NewRegister(3)
	r.Push(40)
	got := r.Targets(nil)
	if got[0] != 40 || got[1] != 0 || got[2] != 0 {
		t.Errorf("partially filled register: %v", got)
	}
}

func TestRegisterReset(t *testing.T) {
	r := NewRegister(3)
	r.Push(4)
	r.Push(8)
	r.Reset()
	for _, v := range r.Targets(nil) {
		if v != 0 {
			t.Fatalf("Reset left %v", r.Targets(nil))
		}
	}
}

func TestRegisterRecentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Recent out of range did not panic")
		}
	}()
	NewRegister(2).Recent(2)
}

func TestNewRegisterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRegister(-1) did not panic")
		}
	}()
	NewRegister(-1)
}

func TestRegisterRing(t *testing.T) {
	// Property: after pushing sequence v0..vn, Targets returns the last
	// min(n+1, p) values in reverse order (padded with zeros).
	f := func(vals []uint32, depth uint8) bool {
		p := int(depth%8) + 1
		r := NewRegister(p)
		for _, v := range vals {
			r.Push(v)
		}
		got := r.Targets(nil)
		for i := 0; i < p; i++ {
			var want uint32
			if i < len(vals) {
				want = vals[len(vals)-1-i]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFileSharing(t *testing.T) {
	// s=12: branches within the same 4KB region share a register.
	f := NewFile(12, 4)
	a := f.Get(0x0000_1000)
	b := f.Get(0x0000_1FFC)
	c := f.Get(0x0000_2000)
	if a != b {
		t.Error("same-region branches got distinct registers")
	}
	if a == c {
		t.Error("cross-region branches share a register")
	}
	if f.Registers() != 2 {
		t.Errorf("Registers = %d, want 2", f.Registers())
	}
}

func TestFileGlobal(t *testing.T) {
	for _, s := range []int{31, 32, 40} {
		f := NewFile(s, 4)
		if f.Get(0x1000) != f.Get(0x7FFF_FFFC) {
			// At s=31 addresses below 2^31 share register 0; our
			// address spaces stay below 2^31 so this must hold.
			t.Errorf("s=%d: registers differ for low addresses", s)
		}
	}
	f := NewFile(32, 2)
	if f.Registers() != 1 {
		t.Errorf("global file Registers = %d", f.Registers())
	}
	f.Get(0x1000).Push(99)
	f.Reset()
	if f.Get(0x1000).Recent(0) != 0 {
		t.Error("Reset did not clear global register")
	}
}

func TestFilePerBranch(t *testing.T) {
	f := NewFile(2, 2)
	if f.Get(0x1000) == f.Get(0x1004) {
		t.Error("s=2 should give per-branch registers")
	}
	// Clamping: s below 2 behaves as 2.
	g := NewFile(0, 2)
	if g.shareBits != 2 {
		t.Errorf("shareBits = %d, want clamped 2", g.shareBits)
	}
	g.Get(0x1000).Push(8)
	g.Reset()
	if g.Registers() != 0 {
		t.Errorf("Reset left %d registers", g.Registers())
	}
}

func TestBitsForPath(t *testing.T) {
	cases := map[int]int{0: 0, 1: 24, 2: 12, 3: 8, 4: 6, 6: 4, 8: 3, 12: 2, 18: 1, 24: 1, 25: 0}
	for p, want := range cases {
		if got := BitsForPath(p); got != want {
			t.Errorf("BitsForPath(%d) = %d, want %d", p, got, want)
		}
	}
	for p := 1; p <= 24; p++ {
		if b := BitsForPath(p); b*p > 24 {
			t.Errorf("BitsForPath(%d)=%d exceeds 24-bit budget", p, b)
		}
	}
}

func TestSpecPattern(t *testing.T) {
	r := NewRegister(2)
	r.Push(0xABC << 2) // older after next push
	r.Push(0xDEF << 2)
	spec := Spec{PathLength: 2, Bits: 12, StartBit: 2, Scheme: bits.Concat, Op: OpXor}
	got := spec.Pattern(r, make([]uint32, 0, 8))
	want := uint32(0xABC)<<12 | 0xDEF
	if got != want {
		t.Errorf("Pattern = %#x, want %#x", got, want)
	}
	if spec.PatternBits() != 24 {
		t.Errorf("PatternBits = %d", spec.PatternBits())
	}
}

func TestSpecKeyP0IsBTBKey(t *testing.T) {
	r := NewRegister(0)
	spec := DefaultSpec(0)
	for _, pc := range []uint32{0x1000, 0x4_0000, 0x7FFF_FFFC} {
		if got := spec.Key(r, pc, nil); got != uint64(pc>>2) {
			t.Errorf("p=0 key for %#x = %#x, want %#x", pc, got, pc>>2)
		}
	}
}

func TestSpecKeyOps(t *testing.T) {
	r := NewRegister(3)
	for _, v := range []uint32{0x100, 0x200, 0x300} {
		r.Push(v)
	}
	scratch := make([]uint32, 0, 8)
	xs := Spec{PathLength: 3, Bits: 8, StartBit: 2, Scheme: bits.Reverse, Op: OpXor}
	cs := xs
	cs.Op = OpConcat
	pc := uint32(0x0040_0010)
	xk, ck := xs.Key(r, pc, scratch), cs.Key(r, pc, scratch)
	if xk >= 1<<30 {
		t.Errorf("xor key has more than 30 bits: %#x", xk)
	}
	if got, want := ck>>24, uint64(pc>>2); got != want {
		t.Errorf("concat key address part %#x, want %#x", got, want)
	}
	if xs.KeyBits() != 30 || cs.KeyBits() != 54 {
		t.Errorf("KeyBits: xor=%d concat=%d", xs.KeyBits(), cs.KeyBits())
	}
}

func TestDefaultSpec(t *testing.T) {
	s := DefaultSpec(6)
	if s.Bits != 4 || s.StartBit != 2 || s.Scheme != bits.Reverse || s.Op != OpXor {
		t.Errorf("DefaultSpec(6) = %+v", s)
	}
}

func TestKeyOpString(t *testing.T) {
	if OpXor.String() != "xor" || OpConcat.String() != "concat" {
		t.Error("KeyOp names")
	}
	if KeyOp(9).String() == "" {
		t.Error("unknown KeyOp stringer empty")
	}
}

func TestFullKeyDistinguishes(t *testing.T) {
	r := NewRegister(2)
	r.Push(0x100)
	r.Push(0x200)
	k1 := FullKey(nil, r, 0x1000, 2, 2, 0)
	k2 := FullKey(nil, r, 0x1004, 2, 2, 0) // different branch, h=2 -> different key
	k3 := FullKey(nil, r, 0x1004, 31, 2, 0)
	k4 := FullKey(nil, r, 0x1000, 31, 2, 0) // h=31 -> same selector
	if string(k1) == string(k2) {
		t.Error("per-branch keys collide across branches")
	}
	if string(k3) != string(k4) {
		t.Error("h=31 keys differ for same history")
	}
	r.Push(0x300)
	k5 := FullKey(nil, r, 0x1000, 2, 2, 0)
	if string(k1) == string(k5) {
		t.Error("key unchanged after history push")
	}
	if len(k1) != 4*(1+2) {
		t.Errorf("key length %d, want 12", len(k1))
	}
}

func TestFullKeyExactness(t *testing.T) {
	// Full-precision keys must distinguish histories that differ in any
	// single bit of any target — the §3 experiments rely on this.
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 100; trial++ {
		p := 1 + rng.IntN(8)
		r1, r2 := NewRegister(p), NewRegister(p)
		vals := make([]uint32, p)
		for i := range vals {
			vals[i] = rng.Uint32() &^ 3
			r1.Push(vals[i])
			r2.Push(vals[i])
		}
		// Flip one bit of one push in r2 by re-pushing the sequence.
		r2.Reset()
		flip := rng.IntN(p)
		for i, v := range vals {
			if i == flip {
				v ^= 1 << uint(2+rng.IntN(30))
			}
			r2.Push(v)
		}
		k1 := FullKey(nil, r1, 0x1000, 2, 2, 0)
		k2 := FullKey(nil, r2, 0x1000, 2, 2, 0)
		if string(k1) == string(k2) {
			t.Fatalf("full keys collide despite differing history (p=%d)", p)
		}
	}
}
