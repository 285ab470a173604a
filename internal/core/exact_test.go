package core

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/table"
)

// mapExact is the reference for full-precision mode: a map from each key's
// bytes (history.FullKey over a register of raw targets) to its entry, as
// the exact table was before it was flat. It shares the update rule with
// TwoLevel, and nothing of the exact table, its rolling hash or its
// truncated pushes.
type mapExact struct {
	cfg  Config
	hist *history.File
	m    map[string]*table.Entry
	max  uint8
	key  []byte
}

func newMapExact(cfg Config) *mapExact {
	cfg = cfg.Defaults()
	return &mapExact{cfg: cfg, hist: history.NewFile(cfg.HistShare, cfg.PathLength), m: map[string]*table.Entry{}, max: confMax(cfg.ConfBits)}
}

func (r *mapExact) entry(pc uint32) (*table.Entry, bool) {
	r.key = history.FullKey(r.key[:0], r.hist.Get(pc), pc, r.cfg.TableShare, r.cfg.StartBit, r.cfg.Precision)
	e, ok := r.m[string(r.key)]
	return e, ok
}

func (r *mapExact) predict(pc uint32) (uint32, uint8, bool) {
	if e, ok := r.entry(pc); ok {
		return e.Target, e.Conf, true
	}
	return 0, 0, false
}

func (r *mapExact) update(pc, target uint32) {
	if e, ok := r.entry(pc); ok {
		bumpConf(e, applyTarget(e, target, r.cfg.Update), r.max)
	} else {
		r.m[string(r.key)] = &table.Entry{Target: target}
	}
	reg := r.hist.Get(pc)
	if r.cfg.IncludeAddress {
		reg.Push(pc)
	}
	reg.Push(target)
}

func (r *mapExact) reset() {
	clear(r.m)
	r.hist.Reset()
}

// exactCase is one differential run: a full-precision configuration and a
// branch stream drawn from seed, with a reset every resetEvery branches (0
// for none).
type exactCase struct {
	cfg        Config
	seed       uint64
	n          int
	resetEvery int
	collide    bool // every key's hash is 0: only the key comparison tells keys apart
}

// checkExact drives TwoLevel and the map reference over the case's stream
// and fails at the first prediction, or table size, they disagree on.
func checkExact(t *testing.T, c exactCase) {
	t.Helper()
	if c.collide {
		exactHashMask = 0
		defer func() { exactHashMask = ^uint64(0) }()
	}
	p, err := NewTwoLevel(c.cfg)
	if err != nil {
		t.Fatalf("%+v: %v", c.cfg, err)
	}
	ref := newMapExact(c.cfg)
	rng := rand.New(rand.NewPCG(c.seed, c.seed>>32|1))
	// Few sites with few targets each, so paths recur and entries both hit
	// and miss; sites spread over address bits 2..12, so per-address
	// histories and per-branch tables split them.
	sites := 1 + rng.IntN(12)
	fanout := 1 + rng.IntN(6)
	for i := range c.n {
		if c.resetEvery > 0 && i > 0 && i%c.resetEvery == 0 {
			p.Reset()
			ref.reset()
		}
		pc := 0x10000 + uint32(rng.IntN(sites))<<(2+rng.IntN(3)*4)
		target := 0x40000 + uint32(rng.IntN(fanout))<<uint(2+rng.IntN(20))
		gt, gc, gok := p.PredictConf(pc)
		wt, wc, wok := ref.predict(pc)
		if gt != wt || gc != wc || gok != wok {
			t.Fatalf("%+v collide=%v, branch %d: predicted (%#x, conf %d, %v), reference (%#x, conf %d, %v)",
				c.cfg, c.collide, i, gt, gc, gok, wt, wc, wok)
		}
		p.Update(pc, target)
		ref.update(pc, target)
		if got, want := p.Patterns(), len(ref.m); got != want {
			t.Fatalf("%+v collide=%v, branch %d: %d patterns, reference %d", c.cfg, c.collide, i, got, want)
		}
	}
}

// TestExactTableMatchesMap checks the flat exact table against a map of
// key bytes across path lengths 1-18, full and truncated precision,
// per-branch and global tables, global and per-address histories, the
// §3.3 address variation, resets, and many doublings of the table. With
// every hash forced to one value, keys land in one probe chain and only
// the full key comparison keeps them apart.
func TestExactTableMatchesMap(t *testing.T) {
	seed := uint64(1)
	for p := 1; p <= 18; p++ {
		for _, prec := range []int{0, 3} {
			for _, h := range []int{2, 32} {
				for _, s := range []int{32, 4} {
					for _, collide := range []bool{false, true} {
						seed++
						cfg := Config{PathLength: p, Precision: prec, TableKind: "exact", TableShare: h, HistShare: s}
						if seed%3 == 0 {
							cfg.IncludeAddress = true
						}
						if seed%5 == 0 {
							cfg.Update = UpdateAlways
						}
						n := 600
						if collide {
							n = 200 // one probe chain: quadratic in the table size
						}
						checkExact(t, exactCase{cfg: cfg, seed: seed, n: n, resetEvery: int(seed%4) * 150, collide: collide})
					}
				}
			}
		}
	}
}

// FuzzExactTable drives the differential check of TestExactTableMatchesMap
// with fuzzed configurations and streams.
func FuzzExactTable(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(0), uint8(2), uint8(32), false, uint16(300), uint16(0), false)
	f.Add(uint64(7), uint8(17), uint8(4), uint8(32), uint8(4), true, uint16(500), uint16(97), true)
	f.Add(uint64(9), uint8(0), uint8(12), uint8(9), uint8(2), false, uint16(800), uint16(40), false)
	f.Fuzz(func(t *testing.T, seed uint64, p, prec, h, s uint8, collide bool, n, resetEvery uint16, addr bool) {
		cfg := Config{
			PathLength:     1 + int(p)%18,
			Precision:      int(prec) % 33,
			TableKind:      "exact",
			TableShare:     2 + int(h)%31,
			HistShare:      2 + int(s)%31,
			IncludeAddress: addr,
		}
		if collide {
			n %= 300
		}
		checkExact(t, exactCase{cfg: cfg, seed: seed, n: int(n % 2000), resetEvery: int(resetEvery), collide: collide})
	})
}

// TestExactRefillZeroAllocs: after a reset, a full-precision predictor
// relearning the same patterns allocates nothing. Keys live in the table's
// arena and entries inline, so an insert into arrays already grown is a
// store, where the map it replaced allocated a key and an entry per insert.
func TestExactRefillZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	stream := make([]access, 4096)
	for i := range stream {
		stream[i] = access{0x1000 + uint32(rng.IntN(8))*4, 0x8000 + uint32(rng.IntN(16))*64}
	}
	p := MustTwoLevel(Config{PathLength: 6, Precision: 0, TableKind: "exact"})
	replay := func() {
		p.Reset()
		for _, a := range stream {
			p.Predict(a.pc)
			p.Update(a.pc, a.target)
		}
	}
	replay()
	if p.Patterns() < len(stream)/2 {
		t.Fatalf("the stream makes %d patterns; it must insert throughout", p.Patterns())
	}
	if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
		t.Errorf("%v allocs per refill of %d patterns, want 0", allocs, p.Patterns())
	}
}

// TestNewTwoLevelBuildsOneTable: NewTwoLevel allocates its table once.
// Config.Validate checks the kind and size through table.Check instead of
// building a table to throw away, which doubled a bounded predictor's
// construction bytes.
func TestNewTwoLevelBuildsOneTable(t *testing.T) {
	cfg := Config{PathLength: 3, Precision: AutoPrecision, Scheme: 2, TableKind: "assoc4", Entries: 32768}
	tableBytes := uint64(cfg.Entries) * 24 // 24-byte entries (TestEntrySize)
	const builds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range builds {
		MustTwoLevel(cfg)
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / builds
	if perBuild < tableBytes || perBuild > tableBytes+tableBytes/4 {
		t.Errorf("NewTwoLevel allocates %d bytes; one %d-entry table is %d", perBuild, cfg.Entries, tableBytes)
	}
}
