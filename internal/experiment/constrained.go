package experiment

import (
	"fmt"
	"math"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "fig11",
		Artifact: "Figure 11",
		Desc:     "limited-size fully-associative LRU tables, with capacity-miss attribution",
		Run:      runFig11,
	})
	register(Experiment{
		ID:       "fig12",
		Artifact: "Figure 12",
		Desc:     "4096-entry tables by associativity, concatenated patterns",
		Run:      runFig12,
	})
	register(Experiment{
		ID:       "fig14",
		Artifact: "Figure 14",
		Desc:     "4096-entry tables by associativity, reverse interleaving",
		Run:      runFig14,
	})
	register(Experiment{
		ID:       "fig15",
		Artifact: "Figure 15 (§5.2.1)",
		Desc:     "interleaving schemes: straight vs reverse vs ping-pong",
		Run:      runFig15,
	})
	register(Experiment{
		ID:       "fig16",
		Artifact: "Figure 16",
		Desc:     "table size × associativity sweep with best path length per size",
		Run:      runFig16,
	})
}

// fig11Sizes are the table sizes of the §5 experiments.
var fig11Sizes = []int{32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// boundedConfig is the §4–§5 default configuration: b=⌊24/p⌋ bits from bit 2,
// xor key folding.
func boundedConfig(p int, scheme bits.Scheme, kind string, entries int) core.Config {
	return core.Config{
		PathLength: p,
		Precision:  core.AutoPrecision,
		Scheme:     scheme,
		TableKind:  kind,
		Entries:    entries,
	}
}

// avgsWithShadow runs each configuration over the suite with an unbounded
// shadow twin — all configurations batched through shared trace passes, and
// the configurations of one history sharing one shadow table — and returns
// per-configuration (AVG misprediction %, AVG capacity-miss %).
func (c *Context) avgsWithShadow(cfgs []core.Config) (miss, capac []float64, err error) {
	specs := make([]SweepSpec, len(cfgs))
	for i, cfg := range cfgs {
		shadow := cfg
		shadow.TableKind = "unbounded"
		shadow.Entries = 0
		specs[i] = SweepSpec{Tables: []core.Config{cfg}, Shadow: &shadow}
	}
	res, err := c.SweepSpecs(specs, false)
	if err != nil {
		return nil, nil, err
	}
	miss = make([]float64, len(res))
	capac = make([]float64, len(res))
	for i, m := range res {
		mrates := make(map[string]float64, len(m))
		crates := make(map[string]float64, len(m))
		for bench, r := range m {
			mrates[bench] = r.MissRate()
			crates[bench] = r.CapacityRate()
		}
		miss[i], _ = stats.GroupAverage(mrates, stats.GroupAVG)
		capac[i], _ = stats.GroupAverage(crates, stats.GroupAVG)
	}
	return miss, capac, nil
}

func runFig11(ctx *Context) ([]*stats.Table, error) {
	miss := stats.NewTable("Figure 11: fully-associative LRU tables (AVG misprediction %)", "path")
	capac := stats.NewTable("Figure 11: capacity misses (AVG %, miss the unbounded twin predicts)", "path")
	paths := []int{0, 1, 2, 3, 4, 6, 8, 10, 12}
	var cfgs []core.Config
	for _, p := range paths {
		for _, size := range fig11Sizes {
			cfgs = append(cfgs, boundedConfig(p, bits.Concat, "fullassoc", size))
		}
	}
	m, cp, err := ctx.avgsWithShadow(cfgs)
	if err != nil {
		return nil, err
	}
	for i, p := range paths {
		for j, size := range fig11Sizes {
			col := fmt.Sprintf("%d", size)
			row := fmt.Sprintf("p=%d", p)
			miss.Set(row, col, m[i*len(fig11Sizes)+j])
			capac.Set(row, col, cp[i*len(fig11Sizes)+j])
		}
	}
	return []*stats.Table{miss, capac}, nil
}

// avgsOver returns the AVG misprediction rate for each configuration,
// simulated in one batched sweep.
func (c *Context) avgsOver(cfgs []core.Config) ([]float64, error) {
	rates, err := c.SweepConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(rates))
	for i, m := range rates {
		out[i], _ = stats.GroupAverage(m, stats.GroupAVG)
	}
	return out, nil
}

// assocRows are the table organizations of Figures 12/14.
var assocRows = []string{"tagless", "assoc1", "assoc2", "assoc4"}

func runAssocSweep(ctx *Context, title string, scheme bits.Scheme, entries int) (*stats.Table, error) {
	t := stats.NewTable(title, "organization")
	var cfgs []core.Config
	for _, kind := range assocRows {
		for p := 0; p <= 12; p++ {
			cfgs = append(cfgs, boundedConfig(p, scheme, kind, entries))
		}
	}
	avgs, err := ctx.avgsOver(cfgs)
	if err != nil {
		return nil, err
	}
	for i, kind := range assocRows {
		for p := 0; p <= 12; p++ {
			t.Set(kind, fmt.Sprintf("p=%d", p), avgs[i*13+p])
		}
	}
	return t, nil
}

func runFig12(ctx *Context) ([]*stats.Table, error) {
	t, err := runAssocSweep(ctx, "Figure 12: 4096 entries, concatenated patterns (AVG)", bits.Concat, 4096)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

func runFig14(ctx *Context) ([]*stats.Table, error) {
	t, err := runAssocSweep(ctx, "Figure 14: 4096 entries, reverse interleaving (AVG)", bits.Reverse, 4096)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{t}, nil
}

func runFig15(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 15: interleaving schemes, 1-way 4096 entries (AVG)", "scheme")
	schemes := []bits.Scheme{bits.Concat, bits.Straight, bits.Reverse, bits.PingPong}
	var cfgs []core.Config
	for _, scheme := range schemes {
		for p := 1; p <= 12; p++ {
			cfgs = append(cfgs, boundedConfig(p, scheme, "assoc1", 4096))
		}
	}
	avgs, err := ctx.avgsOver(cfgs)
	if err != nil {
		return nil, err
	}
	for i, scheme := range schemes {
		for p := 1; p <= 12; p++ {
			t.Set(scheme.String(), fmt.Sprintf("p=%d", p), avgs[i*12+p-1])
		}
	}
	return []*stats.Table{t}, nil
}

func runFig16(ctx *Context) ([]*stats.Table, error) {
	full := stats.NewTable("Figure 16: AVG misprediction by size × path (tagless / assoc2 / assoc4)", "config")
	best := stats.NewTable("Figure 16: best path length per size", "organization")
	bestMiss := stats.NewTable("Figure 16: best misprediction per size (AVG)", "organization")
	sizes := []int{128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	kinds := []string{"tagless", "assoc2", "assoc4"}
	var cfgs []core.Config
	for _, kind := range kinds {
		for _, size := range sizes {
			for p := 0; p <= 12; p++ {
				cfgs = append(cfgs, boundedConfig(p, bits.Reverse, kind, size))
			}
		}
	}
	avgs, err := ctx.avgsOver(cfgs)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, kind := range kinds {
		for _, size := range sizes {
			bestP, bestV := -1, math.Inf(1)
			for p := 0; p <= 12; p++ {
				avg := avgs[i]
				i++
				full.Set(fmt.Sprintf("%s/%d", kind, size), fmt.Sprintf("p=%d", p), avg)
				if avg < bestV {
					bestP, bestV = p, avg
				}
			}
			col := fmt.Sprintf("%d", size)
			best.Set(kind, col, float64(bestP))
			bestMiss.Set(kind, col, bestV)
		}
	}
	return []*stats.Table{bestMiss, best, full}, nil
}
