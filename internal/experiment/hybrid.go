package experiment

import (
	"fmt"
	"math"
	"sync"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "fig17",
		Artifact: "Figure 17",
		Desc:     "hybrid path-length combination matrix (assoc4, 2-bit confidence)",
		Run:      runFig17,
	})
	register(Experiment{
		ID:       "tableA1",
		Artifact: "Table A-1 (+Figure 18, Tables 6, A-2)",
		Desc:     "best predictors per table size and organization, hybrid and non-hybrid",
		Run:      runAppendix,
	})
	register(Experiment{
		ID:       "fig18",
		Artifact: "Figure 18",
		Desc:     "best hybrid vs non-hybrid vs fully-associative per total size",
		Run:      runAppendix,
	})
	register(Experiment{
		ID:       "table6",
		Artifact: "Table 6",
		Desc:     "best hybrid misprediction rates and path length combinations",
		Run:      runAppendix,
	})
	register(Experiment{
		ID:       "tableA2",
		Artifact: "Table A-2",
		Desc:     "path length of the best predictor per associativity and size",
		Run:      runAppendix,
	})
	register(Experiment{
		ID:       "abl-meta",
		Artifact: "§6.1 (metaprediction)",
		Desc:     "per-entry confidence counters vs per-branch BPST selection",
		Run:      runAblMeta,
	})
	register(Experiment{
		ID:       "ext-ppm",
		Artifact: "§7 [CCM96]",
		Desc:     "PPM-style cascade vs confidence hybrid at equal budget",
		Run:      runExtPPM,
	})
	register(Experiment{
		ID:       "ext-shared",
		Artifact: "§8.1 (future work)",
		Desc:     "shared-table hybrid with chosen counters vs split tables",
		Run:      runExtShared,
	})
	register(Experiment{
		ID:       "ext-3comp",
		Artifact: "§8.1 (future work)",
		Desc:     "three-component hybrids vs the best two-component hybrid",
		Run:      runExt3Comp,
	})
}

// hybridMk constructs dual-path hybrids for batched sweeps.
func hybridMk(p1, p2 int, kind string, componentEntries int) func() (core.Predictor, error) {
	return func() (core.Predictor, error) {
		return core.NewDualPath(p1, p2, kind, componentEntries)
	}
}

func runFig17(ctx *Context) ([]*stats.Table, error) {
	var tables []*stats.Table
	for _, compSize := range []int{2048, 8192} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 17: AVG prediction hit rates, hybrid assoc4, component size %d", compSize),
			"p1")
		// The whole path-length combination matrix runs as one batch.
		type cell struct{ p1, p2 int }
		var cells []cell
		var mks []func() (core.Predictor, error)
		for p1 := 0; p1 <= 12; p1++ {
			for p2 := 0; p2 <= p1; p2++ {
				cells = append(cells, cell{p1, p2})
				if p1 == p2 {
					// Diagonal: the paper shows the non-hybrid
					// predictor of twice the component size.
					cfg := boundedConfig(p1, bits.Reverse, "assoc4", 2*compSize)
					mks = append(mks, func() (core.Predictor, error) {
						return core.NewTwoLevel(cfg)
					})
				} else {
					mks = append(mks, hybridMk(p1, p2, "assoc4", compSize))
				}
			}
		}
		rates, err := ctx.SweepBatch(mks)
		if err != nil {
			return nil, err
		}
		for i, cl := range cells {
			avg, _ := stats.GroupAverage(rates[i], stats.GroupAVG)
			t.Set(fmt.Sprintf("p1=%d", cl.p1), fmt.Sprintf("p2=%d", cl.p2), 100-avg)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// appendix holds the shared Table A-1 computation (also feeding Figure 18
// and Tables 6 and A-2), memoized on the context.
type appendix struct {
	once sync.Once
	err  error
	// best[family][size] = (missAVG, p1, p2); p2 < 0 for non-hybrids.
	best map[string]map[int]appendixCell
}

type appendixCell struct {
	miss     float64
	p1, p2   int
	perBench map[string]float64
}

var appendixSizes = fig11Sizes

// nonHybridFamilies maps Table A-1 column names to table kinds.
var nonHybridFamilies = []struct{ family, kind string }{
	{"btb-fullassoc", "fullassoc"}, // p fixed at 0
	{"tagless", "tagless"},
	{"assoc1", "assoc1"},
	{"assoc2", "assoc2"},
	{"assoc4", "assoc4"},
	{"fullassoc", "fullassoc"},
}

var hybridFamilies = []struct{ family, kind string }{
	{"hyb-tagless", "tagless"},
	{"hyb-assoc1", "assoc1"},
	{"hyb-assoc2", "assoc2"},
	{"hyb-assoc4", "assoc4"},
}

// hybridPairs are the candidate (short, long) component path lengths; the
// paper's winners (Table A-2) all lie inside this set.
func hybridPairs() [][2]int {
	var out [][2]int
	for a := 0; a <= 3; a++ {
		hi := 8
		if a == 3 {
			hi = 9
		}
		for b := a + 1; b <= hi; b++ {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

func (c *Context) appendix() (*appendix, error) {
	c.appx.once.Do(func() {
		c.appx.best = make(map[string]map[int]appendixCell)
		c.appx.err = c.computeAppendix(&c.appx)
	})
	return &c.appx, c.appx.err
}

func (c *Context) computeAppendix(a *appendix) error {
	record := func(family string, size int, cell appendixCell) {
		m := a.best[family]
		if m == nil {
			m = make(map[int]appendixCell)
			a.best[family] = m
		}
		if old, ok := m[size]; !ok || cell.miss < old.miss {
			m[size] = cell
		}
	}
	// The full grid — every (size, family, path length) candidate, hybrid
	// and non-hybrid — runs as one batch. Candidates are recorded in the
	// same order they are enumerated, so best-cell tie-breaking (first
	// strict improvement wins) matches the sequential computation.
	type candidate struct {
		family string
		size   int
		p1, p2 int
	}
	var cands []candidate
	var mks []func() (core.Predictor, error)
	for _, size := range appendixSizes {
		for _, fam := range nonHybridFamilies {
			maxP := 8
			if fam.family == "btb-fullassoc" {
				maxP = 0
			}
			for p := 0; p <= maxP; p++ {
				cfg := boundedConfig(p, bits.Reverse, fam.kind, size)
				cands = append(cands, candidate{fam.family, size, p, -1})
				mks = append(mks, func() (core.Predictor, error) {
					return core.NewTwoLevel(cfg)
				})
			}
		}
		for _, fam := range hybridFamilies {
			comp := size / 2
			if comp < 8 {
				continue
			}
			for _, pair := range hybridPairs() {
				cands = append(cands, candidate{fam.family, size, pair[0], pair[1]})
				mks = append(mks, hybridMk(pair[0], pair[1], fam.kind, comp))
			}
		}
	}
	rates, err := c.SweepBatch(mks)
	if err != nil {
		return err
	}
	for i, cand := range cands {
		avg, _ := stats.GroupAverage(rates[i], stats.GroupAVG)
		record(cand.family, cand.size, appendixCell{miss: avg, p1: cand.p1, p2: cand.p2, perBench: rates[i]})
	}
	return nil
}

func runAppendix(ctx *Context) ([]*stats.Table, error) {
	a, err := ctx.appendix()
	if err != nil {
		return nil, err
	}
	families := make([]string, 0, 10)
	for _, f := range nonHybridFamilies {
		families = append(families, f.family)
	}
	for _, f := range hybridFamilies {
		families = append(families, f.family)
	}

	a1 := stats.NewTable("Table A-1: AVG misprediction (best path length per cell)", "size")
	a2 := stats.NewTable("Table A-2: path lengths of the best predictors (p1 [+ p2/10 for hybrids])", "size")
	t6 := stats.NewTable("Table 6: best hybrid predictors (miss% and components)", "size")
	fig18 := stats.NewTable("Figure 18: best predictor per total size (AVG misprediction %)", "size")
	for _, size := range appendixSizes {
		row := fmt.Sprintf("%d", size)
		for _, fam := range families {
			cell, ok := a.best[fam][size]
			if !ok {
				continue
			}
			a1.Set(row, fam, cell.miss)
			enc := float64(cell.p1)
			if cell.p2 >= 0 {
				enc = float64(cell.p1) + float64(cell.p2)/10
			}
			a2.Set(row, fam, enc)
		}
		for _, fam := range []string{"hyb-tagless", "hyb-assoc2", "hyb-assoc4"} {
			if cell, ok := a.best[fam][size]; ok {
				t6.Set(row, fam+"-miss", cell.miss)
				t6.Set(row, fam+"-p1", float64(cell.p1))
				t6.Set(row, fam+"-p2", float64(cell.p2))
			}
		}
		for _, fam := range []string{"tagless", "assoc2", "assoc4", "fullassoc",
			"hyb-tagless", "hyb-assoc2", "hyb-assoc4"} {
			if cell, ok := a.best[fam][size]; ok {
				fig18.Set(row, fam, cell.miss)
			}
		}
	}

	// Per-benchmark Table A-1 slices at two representative sizes.
	var perBench []*stats.Table
	for _, size := range []int{1024, 8192} {
		t := stats.NewTable(fmt.Sprintf("Table A-1 per benchmark, %d entries", size), "benchmark")
		for _, fam := range families {
			cell, ok := a.best[fam][size]
			if !ok {
				continue
			}
			ext := stats.WithGroups(cell.perBench)
			for _, k := range stats.SortedKeys(ext) {
				t.Set(k, fam, ext[k])
			}
		}
		perBench = append(perBench, t)
	}

	out := []*stats.Table{a1, a2, t6, fig18}
	return append(out, perBench...), nil
}

// pairSweep batches a (row × size-column) comparison grid — two predictor
// variants per budget column, as used by the §6–§8 comparison experiments —
// and fills the table with AVG rates.
func pairSweep(ctx *Context, t *stats.Table, sizes []int,
	rows [2]string, mk func(which, size int) func() (core.Predictor, error)) ([]*stats.Table, error) {
	var mks []func() (core.Predictor, error)
	for _, size := range sizes {
		for which := 0; which < 2; which++ {
			mks = append(mks, mk(which, size))
		}
	}
	rates, err := ctx.SweepBatch(mks)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		col := fmt.Sprintf("%d", size)
		for which := 0; which < 2; which++ {
			avg, _ := stats.GroupAverage(rates[2*i+which], stats.GroupAVG)
			t.Set(rows[which], col, avg)
		}
	}
	return []*stats.Table{t}, nil
}

func runAblMeta(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§6.1 ablation: metaprediction (AVG, hybrid p=3.1 assoc4)", "selector")
	return pairSweep(ctx, t, []int{512, 2048, 8192}, [2]string{"confidence", "bpst"},
		func(which, size int) func() (core.Predictor, error) {
			comp := size / 2
			if which == 0 {
				return hybridMk(1, 3, "assoc4", comp)
			}
			return func() (core.Predictor, error) {
				mk := func(p int) (*core.TwoLevel, error) {
					return core.NewTwoLevel(boundedConfig(p, bits.Reverse, "assoc4", comp))
				}
				a, err := mk(1)
				if err != nil {
					return nil, err
				}
				b, err := mk(3)
				if err != nil {
					return nil, err
				}
				return core.NewBPSTHybrid(a, b, 1024)
			}
		})
}

func runExtPPM(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§7 extension: PPM cascade vs confidence hybrid (AVG, p=3&1)", "predictor")
	return pairSweep(ctx, t, []int{512, 2048, 8192}, [2]string{"hybrid", "ppm-cascade"},
		func(which, size int) func() (core.Predictor, error) {
			comp := size / 2
			if which == 0 {
				return hybridMk(1, 3, "assoc4", comp)
			}
			return func() (core.Predictor, error) {
				return core.NewCascade([]int{3, 1}, "assoc4", comp)
			}
		})
}

func runExtShared(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§8.1 extension: shared-table hybrid (AVG, p=3.1 assoc4)", "predictor")
	return pairSweep(ctx, t, []int{512, 2048, 8192}, [2]string{"split-tables", "shared-table"},
		func(which, size int) func() (core.Predictor, error) {
			if which == 0 {
				return hybridMk(1, 3, "assoc4", size/2)
			}
			return func() (core.Predictor, error) {
				return core.NewSharedHybrid(3, 1, "assoc4", size)
			}
		})
}

func runExt3Comp(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§8.1 extension: three-component hybrids (AVG, assoc4)", "predictor")
	return pairSweep(ctx, t, []int{1536, 6144, 24576}, [2]string{"two-comp(3.1)", "three-comp(7.3.1)"},
		func(which, total int) func() (core.Predictor, error) {
			if which == 0 {
				return hybridMk(1, 3, "assoc4", roundPow2(total/2))
			}
			comp3 := roundPow2(total / 3)
			return func() (core.Predictor, error) {
				comps := make([]core.Component, 0, 3)
				for _, p := range []int{1, 3, 7} {
					c, err := core.NewTwoLevel(boundedConfig(p, bits.Reverse, "assoc4", comp3))
					if err != nil {
						return nil, err
					}
					comps = append(comps, c)
				}
				return core.NewHybrid(comps...)
			}
		})
}

// roundPow2 rounds n to the nearest power of two (ties up).
func roundPow2(n int) int {
	if n < 1 {
		return 1
	}
	lg := math.Log2(float64(n))
	return 1 << int(lg+0.5)
}
