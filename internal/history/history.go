// Package history implements the first level of the two-level indirect
// branch predictor: history registers holding the targets of recently
// executed indirect branches (the branch "path"), per-set history files
// parameterized by the paper's sharing parameter s, and the construction of
// lookup keys from (compressed) history patterns and branch addresses.
package history

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/oocsb/ibp/internal/bits"
)

// Register is a fixed-capacity ring buffer of the most recent branch
// targets. A fresh register reads as all-zero targets, matching a hardware
// history register that powers up cleared.
type Register struct {
	buf  []uint32
	head int // index of the most recent target

	// Incremental pattern state (see Track): when tracking is enabled the
	// compressed pattern of §4 is maintained on every Push in O(1) — one
	// masked shift plus at most four table lookups — instead of being
	// reassembled from all p targets on every probe, the dominant cost of
	// the simulator's hot loop.
	track    bool
	scheme   bits.Scheme
	b, start int
	patMask  uint32        // low p*b bits (Concat shift-out mask)
	colClear uint32        // column holding the exiting target (interleaved schemes)
	deposit  *depositTable // incoming target's field → pattern bits (interleaved schemes)
	pat      uint32

	// Rolling hash (see TrackSum): when enabled, sum is Σ Recent(i)·sumMul^i
	// over the ring, kept on every push in O(1) — the leaving target's term
	// comes off, the rest shift up one power — so an exact table places a
	// key without reading the p targets it holds.
	summed bool
	sum    uint64
	sumTop uint64 // sumMul^(p-1), the weight of the oldest target
}

// sumMul is the rolling hash's base: odd, so each power is invertible and no
// target's term vanishes.
const sumMul = 0xff51afd7ed558ccd

// depositTable places the b-bit field of the incoming (youngest) target into
// its column of an interleaved pattern, one field byte at a time: entry
// [k][v] holds the pattern bits that field bits 8k..8k+7 set when they read
// v. Four lookups cover any b <= 32; bytes above b index entry 0, which is 0.
type depositTable [4][256]uint32

// of returns the pattern bits of field t.
func (d *depositTable) of(t uint32) uint32 {
	return d[0][uint8(t)] | d[1][uint8(t>>8)] | d[2][uint8(t>>16)] | d[3][uint8(t>>24)]
}

type depositKey struct {
	p, b   int
	scheme bits.Scheme
}

// deposits shares one table per (p, b, scheme) across every register of
// every predictor. A table is immutable once built, so lanes on different
// goroutines read it without locking; only the lookup by key is guarded.
var deposits struct {
	sync.Mutex
	m map[depositKey]*depositTable
}

// depositFor returns the shared table for an interleaved pattern of p
// targets × b bits. Pattern bit r*p+j holds field bit r of the j-th target
// in scheme order (bits.Assemble); the incoming target is j = 0 for
// Straight and j = p-1 for Reverse.
func depositFor(p, b int, scheme bits.Scheme) *depositTable {
	k := depositKey{p, b, scheme}
	deposits.Lock()
	defer deposits.Unlock()
	if d := deposits.m[k]; d != nil {
		return d
	}
	col := 0
	if scheme == bits.Reverse {
		col = p - 1
	}
	d := new(depositTable)
	for r := 0; r < b; r++ {
		bit := uint32(1) << uint(r*p+col)
		for v := 0; v < 256; v++ {
			if v>>uint(r%8)&1 != 0 {
				d[r/8][v] |= bit
			}
		}
	}
	if deposits.m == nil {
		deposits.m = make(map[depositKey]*depositTable)
	}
	deposits.m[k] = d
	return d
}

// NewRegister returns a register recording the last p targets. p = 0 yields
// a degenerate register whose pattern is always empty (the BTB case).
func NewRegister(p int) *Register {
	if p < 0 {
		panic(fmt.Sprintf("history: negative path length %d", p))
	}
	return &Register{buf: make([]uint32, p)}
}

// Depth returns the register's path length p.
func (r *Register) Depth() int { return len(r.buf) }

// Push records target as the most recent branch target.
func (r *Register) Push(target uint32) {
	if len(r.buf) == 0 {
		return
	}
	r.pushRing(target)
	if r.track {
		r.pat = r.next(r.pat, target)
	}
}

// pushRing records target in the ring, and in the rolling hash when that is
// kept, leaving the tracked pattern alone.
func (r *Register) pushRing(target uint32) {
	r.head--
	if r.head < 0 {
		r.head = len(r.buf) - 1
	}
	if r.summed {
		// buf[head] still holds the target that leaves.
		r.sum = (r.sum-uint64(r.buf[r.head])*r.sumTop)*sumMul + uint64(target)
	}
	r.buf[r.head] = target
}

// TrackSum enables the rolling hash Sum. Call it on a freshly created or
// reset register, or any other: the hash starts from the current contents.
func (r *Register) TrackSum() {
	r.summed = true
	r.sumTop = 1
	for range max(len(r.buf)-1, 0) {
		r.sumTop *= sumMul
	}
	r.rebuildSum()
}

// rebuildSum recomputes the rolling hash from the register contents.
func (r *Register) rebuildSum() {
	r.sum = 0
	for i := len(r.buf) - 1; i >= 0; i-- {
		r.sum = r.sum*sumMul + uint64(r.Recent(i))
	}
}

// Sum returns the rolling hash of the register's contents: equal contents
// give equal sums. It is valid only after TrackSum.
func (r *Register) Sum() uint64 { return r.sum }

// Path returns the register's contents, most recent target first, as the
// ring's two pieces: newer, then older. They alias the ring, so they read
// its contents until the next push.
func (r *Register) Path() (newer, older []uint32) {
	return r.buf[r.head:], r.buf[:r.head]
}

// KeyRun keys a run of indirect branches under s and records their targets,
// as a predictor's probes and updates would: keys[j] is s.Key of the branch
// at pcs[j] under the history before it, and targets[j] is then pushed.
// scratch serves a spec the register does not track (see Spec.Pattern). A
// tracked pattern moves in a local for the whole run, and the ring then
// takes the run's last p targets: the register ends holding what pushing
// every target would have left.
func (r *Register) KeyRun(s Spec, pcs, targets []uint32, keys []uint64, scratch []uint32) {
	keys, targets = keys[:len(pcs)], targets[:len(pcs)]
	if !r.Tracks(s) {
		for j, pc := range pcs {
			keys[j] = s.Fold(s.Pattern(r, scratch), pc)
			r.Push(targets[j])
		}
		return
	}
	pat := r.pat
	for j, pc := range pcs {
		keys[j] = s.Fold(pat, pc)
		pat = r.next(pat, targets[j])
	}
	r.pat = pat
	for _, t := range targets[max(len(targets)-len(r.buf), 0):] {
		r.pushRing(t)
	}
}

// trackable reports whether a depth-p register can maintain the pattern for
// s incrementally: not for a mismatched depth, a zero or over-32-bit pattern
// width, or the PingPong scheme, whose columns do not shift uniformly on a
// push.
func (s Spec) trackable(p int) bool {
	return p > 0 && s.PathLength == p && s.Bits > 0 && p*s.Bits <= 32 && s.Scheme != bits.PingPong
}

// Track enables incremental maintenance of the compressed pattern for spec,
// so Spec.Pattern reads it in O(1). Tracking silently stays off when the
// spec does not permit it (see trackable); Pattern then falls back to
// reassembly. Call Track only on a freshly created or reset register: the
// pattern is maintained from this point on.
func (r *Register) Track(s Spec) {
	p := len(r.buf)
	if !s.trackable(p) {
		return
	}
	r.track = true
	r.scheme = s.Scheme
	r.b, r.start = s.Bits, s.StartBit
	r.patMask = uint32(uint64(1)<<uint(p*s.Bits) - 1)
	r.colClear = 0
	r.deposit = nil
	if s.Scheme != bits.Concat {
		r.deposit = depositFor(p, s.Bits, s.Scheme)
	}
	for i := 0; i < s.Bits; i++ {
		switch s.Scheme {
		case bits.Straight:
			// Pushing shifts every column up by one; the oldest
			// target leaves from column p-1.
			r.colClear |= 1 << uint(i*p+p-1)
		case bits.Reverse:
			// Columns shift down; the oldest target leaves from
			// column 0.
			r.colClear |= 1 << uint(i*p)
		}
	}
	r.rebuildPattern()
}

// rebuildPattern recomputes the tracked pattern from the register contents,
// oldest target first.
func (r *Register) rebuildPattern() {
	r.pat = 0
	for i := len(r.buf) - 1; i >= 0; i-- {
		r.pat = r.next(r.pat, r.Recent(i))
	}
}

// Equal reports whether r and o hold the same targets in the same order:
// the same path length and the same contents, most recent first, whatever
// their ring positions or tracking.
func (r *Register) Equal(o *Register) bool {
	if len(r.buf) != len(o.buf) {
		return false
	}
	for i := range r.buf {
		if r.Recent(i) != o.Recent(i) {
			return false
		}
	}
	return true
}

// CopyFrom sets r's contents to src's; both must have the same path length.
// r keeps its own tracking (Track), and its pattern follows the copied
// contents.
func (r *Register) CopyFrom(src *Register) {
	if len(r.buf) != len(src.buf) {
		panic(fmt.Sprintf("history: CopyFrom a depth-%d register into a depth-%d one", len(src.buf), len(r.buf)))
	}
	copy(r.buf, src.buf)
	r.head = src.head
	if r.summed {
		r.rebuildSum()
	}
	if !r.track {
		return
	}
	if src.track && src.scheme == r.scheme && src.b == r.b && src.start == r.start {
		r.pat = src.pat
		return
	}
	r.rebuildPattern()
}

// Tracks reports whether the register maintains the pattern for spec.
func (r *Register) Tracks(s Spec) bool {
	return r.track && r.scheme == s.Scheme && r.b == s.Bits &&
		r.start == s.StartBit && len(r.buf) == s.PathLength
}

// TrackedPattern returns the incrementally maintained pattern; only valid
// when Tracks(spec) holds.
func (r *Register) TrackedPattern() uint32 { return r.pat }

// next returns the tracked pattern pat after a push of target. A push moves
// every recorded target one position deeper in the history, which moves each
// target's column of pattern bits by exactly one (dropping the oldest), so
// the pattern updates with one masked shift plus the incoming target's
// deposit — equivalent to reassembling via bits.Assemble but p times cheaper.
func (r *Register) next(pat, target uint32) uint32 {
	t := bits.Field(target, r.start, r.b)
	switch r.scheme {
	case bits.Concat:
		// Most recent target occupies the low b bits; older ones shift up.
		return (pat<<uint(r.b) | t) & r.patMask
	case bits.Straight:
		// Youngest target sits in column 0 of each b-bit round.
		return (pat&^r.colClear)<<1 | r.deposit.of(t)
	case bits.Reverse:
		// Youngest target sits in column p-1 of each round.
		return (pat&^r.colClear)>>1 | r.deposit.of(t)
	}
	return pat
}

// Targets appends the register contents to dst, most recent target first,
// and returns the extended slice.
func (r *Register) Targets(dst []uint32) []uint32 {
	// Two straight copies instead of a modulo per element: the ring reads
	// buf[head..], then wraps to buf[..head].
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}

// Recent returns the i-th most recent target (0 = newest). It panics if i is
// out of range.
func (r *Register) Recent(i int) uint32 {
	if i < 0 || i >= len(r.buf) {
		panic(fmt.Sprintf("history: Recent(%d) on depth-%d register", i, len(r.buf)))
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// Reset clears the register to the powered-up (all-zero) state.
func (r *Register) Reset() {
	for i := range r.buf {
		r.buf[i] = 0
	}
	r.head = 0
	r.pat = 0
	r.sum = 0
}

// File is a set of history registers shared per address region: all branches
// whose addresses agree in bits s..31 use the same register (Figure 4).
// s=2 gives per-branch histories; s=31 (or more) is a single global history
// for word-aligned 32-bit address spaces.
type File struct {
	shareBits int // s
	depth     int // p
	global    *Register
	regs      map[uint32]*Register
	spec      Spec // incremental-pattern spec applied to registers (see Track)
	track     bool
	summed    bool // registers keep the rolling hash (see TrackSum)
}

// NewFile returns a history file with sharing parameter s and path length p.
// s is clamped to [2, 32]; s >= 32 is fully global.
func NewFile(s, p int) *File {
	if s < 2 {
		s = 2
	}
	if s > 32 {
		s = 32
	}
	f := &File{shareBits: s, depth: p}
	if s >= 32 {
		f.global = NewRegister(p)
	} else {
		f.regs = make(map[uint32]*Register)
	}
	return f
}

// Track enables incremental pattern maintenance (Register.Track) on every
// register of the file, present and future, and reports whether the
// registers track spec; when they do, TrackedPattern is every register's
// pattern for spec.
func (f *File) Track(spec Spec) bool {
	if !spec.trackable(f.depth) {
		return false
	}
	f.spec, f.track = spec, true
	if f.global != nil {
		f.global.Track(spec)
	}
	for _, r := range f.regs {
		r.Track(spec)
	}
	return true
}

// TrackSum enables the rolling hash (Register.TrackSum) on every register of
// the file, present and future.
func (f *File) TrackSum() {
	f.summed = true
	if f.global != nil {
		f.global.TrackSum()
	}
	for _, r := range f.regs {
		r.TrackSum()
	}
}

// Get returns the register used by the branch at pc, creating it on first
// use.
func (f *File) Get(pc uint32) *Register {
	if f.global != nil {
		return f.global
	}
	set := pc >> uint(f.shareBits)
	r := f.regs[set]
	if r == nil {
		r = NewRegister(f.depth)
		if f.track {
			r.Track(f.spec)
		}
		if f.summed {
			r.TrackSum()
		}
		f.regs[set] = r
	}
	return r
}

// Reset clears all registers.
func (f *File) Reset() {
	if f.global != nil {
		f.global.Reset()
		return
	}
	clear(f.regs)
}

// KeyOp selects how the branch address is folded into the history pattern
// when forming the table lookup key (§4.2).
type KeyOp uint8

const (
	// OpXor xors the word-aligned branch address with the pattern
	// (gshare-style), yielding a 30-bit key.
	OpXor KeyOp = iota
	// OpConcat concatenates the address above the pattern, yielding a key
	// of up to 54 bits.
	OpConcat
)

func (op KeyOp) String() string {
	switch op {
	case OpXor:
		return "xor"
	case OpConcat:
		return "concat"
	}
	return fmt.Sprintf("KeyOp(%d)", uint8(op))
}

// Spec describes the compressed history pattern of §4: p targets, b bits per
// target taken from bit StartBit up, laid out per Scheme, combined with the
// branch address per Op.
type Spec struct {
	PathLength int         // p
	Bits       int         // b; the paper keeps p*b <= 24
	StartBit   int         // a; the paper found a=2 best
	Scheme     bits.Scheme // pattern layout
	Op         KeyOp       // address folding
}

// BitsForPath returns the paper's choice of bits per target for path length
// p: the largest b with b*p <= 24 (capped at 24 for p <= 1).
func BitsForPath(p int) int {
	if p <= 0 {
		return 0
	}
	b := 24 / p
	if b > 24 {
		b = 24
	}
	return b
}

// DefaultSpec returns the paper's §4–§6 configuration for path length p:
// b = BitsForPath(p) bits starting at bit 2, reverse interleaving, xor
// address folding.
func DefaultSpec(p int) Spec {
	return Spec{
		PathLength: p,
		Bits:       BitsForPath(p),
		StartBit:   2,
		Scheme:     bits.Reverse,
		Op:         OpXor,
	}
}

// PatternBits returns the width of the compressed pattern in bits.
func (s Spec) PatternBits() int { return s.PathLength * s.Bits }

// Pattern builds the compressed history pattern from the register. scratch
// is reused to avoid allocation; pass a slice with capacity >= p.
func (s Spec) Pattern(r *Register, scratch []uint32) uint32 {
	if s.PathLength == 0 || s.Bits == 0 {
		return 0
	}
	if r.Tracks(s) {
		return r.pat
	}
	targets := r.Targets(scratch[:0])
	if len(targets) > s.PathLength {
		targets = targets[:s.PathLength]
	}
	return bits.Assemble(targets, s.Bits, s.StartBit, s.Scheme)
}

// Key builds the table lookup key for the branch at pc using the register's
// current contents.
func (s Spec) Key(r *Register, pc uint32, scratch []uint32) uint64 {
	return s.Fold(s.Pattern(r, scratch), pc)
}

// Fold combines a history pattern with the address of the branch at pc into
// the table lookup key, per s.Op (§4.2).
func (s Spec) Fold(pattern, pc uint32) uint64 {
	if s.Op == OpConcat {
		return bits.ConcatKey(pattern, pc, s.PatternBits())
	}
	return bits.XorKey(pattern, pc)
}

// FullKey appends the exact key for unconstrained (§3–§4) predictors to
// dst: the table selector pc>>h followed by the register's p targets. With
// bits = 0 each target contributes its full 32-bit address; otherwise each
// target contributes its `bits`-wide field starting at startBit (the §4.1
// limited-precision variant, without the 24-bit pattern cap — exact byte
// keys have no width limit). Using exact bytes guarantees these experiments
// are free of aliasing artifacts.
func FullKey(dst []byte, r *Register, pc uint32, tableShareBits, startBit, nbits int) []byte {
	h := tableShareBits
	if h < 2 {
		h = 2
	}
	var sel uint32
	if h < 32 {
		sel = pc >> uint(h)
	}
	dst = binary.LittleEndian.AppendUint32(dst, sel)
	for i := 0; i < r.Depth(); i++ {
		t := r.Recent(i)
		if nbits > 0 {
			t = bits.Field(t, startBit, nbits)
		}
		dst = binary.LittleEndian.AppendUint32(dst, t)
	}
	return dst
}
