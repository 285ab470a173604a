package experiment

import (
	"fmt"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "table1",
		Artifact: "Tables 1–2",
		Desc:     "benchmark characteristics: branch counts, densities, site coverage",
		Run:      runTable1,
	})
	register(Experiment{
		ID:       "fig2",
		Artifact: "Figure 2",
		Desc:     "unconstrained BTB vs BTB-2bc misprediction rates",
		Run:      runFig2,
	})
	register(Experiment{
		ID:       "fig5",
		Artifact: "Figure 5",
		Desc:     "history pattern sharing s (per-branch … global), p=8",
		Run:      runFig5,
	})
	register(Experiment{
		ID:       "fig7",
		Artifact: "Figure 7",
		Desc:     "history table sharing h (per-branch … global), p=8, global history",
		Run:      runFig7,
	})
	register(Experiment{
		ID:       "fig9",
		Artifact: "Figure 9",
		Desc:     "path length sweep p=0..18, unconstrained two-level",
		Run:      runFig9,
	})
	register(Experiment{
		ID:       "abl-update",
		Artifact: "§3.2 (update rule claim)",
		Desc:     "update-always vs two-miss (2bc) target update across path lengths",
		Run:      runAblUpdate,
	})
	register(Experiment{
		ID:       "abl-cond",
		Artifact: "§3.3 (variation)",
		Desc:     "including conditional-branch targets in the history",
		Run:      runAblCond,
	})
	register(Experiment{
		ID:       "abl-addr",
		Artifact: "§3.3 (variation)",
		Desc:     "including branch addresses alongside targets in the history",
		Run:      runAblAddr,
	})
}

func runTable1(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("Tables 1–2: benchmark characteristics", "benchmark",
		"branches", "instr/ind", "cond/ind", "vcall%", "sites90", "sites95", "sites99", "sites100")
	for _, cfg := range ctx.Suite {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s := ctx.Summary(cfg)
		t.AddRow(cfg.Name,
			float64(s.Indirect),
			s.InstrPerIndirect,
			s.CondPerIndirect,
			100*s.VCallFraction,
			float64(s.Coverage[90]),
			float64(s.Coverage[95]),
			float64(s.Coverage[99]),
			float64(s.Coverage[100]),
		)
	}
	return []*stats.Table{t}, nil
}

// exactConfig returns the unconstrained (§3) configuration for a path
// length: full-precision keys, exact tables (p=0 keys are just the branch
// address, which fits the unbounded 64-bit table).
func exactConfig(p int) core.Config {
	cfg := core.Config{PathLength: p, Precision: 0}
	if p == 0 {
		cfg.TableKind = "unbounded"
	} else {
		cfg.TableKind = "exact"
	}
	return cfg
}

func runFig2(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 2: unconstrained BTB misprediction rates", "benchmark", "btb", "btb-2bc")
	rules := []struct {
		col  string
		rule core.UpdateRule
	}{{"btb", core.UpdateAlways}, {"btb-2bc", core.UpdateTwoMiss}}
	specs := make([]SweepSpec, len(rules))
	for i, r := range rules {
		rule := r.rule
		specs[i] = SweepSpec{Mk: func() (core.Predictor, error) { return core.NewBTB(nil, rule), nil }}
	}
	rates, err := ctx.SweepBatch(specs)
	if err != nil {
		return nil, err
	}
	for i, r := range rules {
		ext := stats.WithGroups(rates[i])
		for _, k := range stats.SortedKeys(ext) {
			t.Set(k, r.col, ext[k])
		}
	}
	return []*stats.Table{t}, nil
}

// shareSweepValues are the sharing exponents simulated for Figures 5 and 7
// (the paper sweeps 2..22 plus 31 = global).
var shareSweepValues = []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 31}

func runFig5(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 5: history sharing (p=8, per-branch tables)", "group")
	cfgs := make([]core.Config, len(shareSweepValues))
	for i, s := range shareSweepValues {
		cfgs[i] = exactConfig(8)
		cfgs[i].HistShare = s
	}
	rates, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, s := range shareSweepValues {
		setGroups(t, fmt.Sprintf("s=%d", s), rates[i])
	}
	return []*stats.Table{t}, nil
}

func runFig7(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 7: history table sharing (p=8, global history)", "group")
	cfgs := make([]core.Config, len(shareSweepValues))
	for i, h := range shareSweepValues {
		cfgs[i] = exactConfig(8)
		cfgs[i].TableShare = h
	}
	rates, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, h := range shareSweepValues {
		setGroups(t, fmt.Sprintf("h=%d", h), rates[i])
	}
	return []*stats.Table{t}, nil
}

func runFig9(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 9: misprediction vs path length (global history, per-address tables)", "group")
	var cfgs []core.Config
	for p := 0; p <= 18; p++ {
		cfgs = append(cfgs, exactConfig(p))
	}
	rates, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for p := 0; p <= 18; p++ {
		setGroups(t, fmt.Sprintf("p=%d", p), rates[p])
	}
	return []*stats.Table{t}, nil
}

func runAblUpdate(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§3.2 ablation: target update rule (AVG)", "rule")
	type cell struct {
		p    int
		rule core.UpdateRule
	}
	var cells []cell
	var cfgs []core.Config
	for p := 0; p <= 8; p++ {
		for _, rule := range []core.UpdateRule{core.UpdateAlways, core.UpdateTwoMiss} {
			cfg := exactConfig(p)
			cfg.Update = rule
			cells = append(cells, cell{p, rule})
			cfgs = append(cfgs, cfg)
		}
	}
	rates, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	for i, cl := range cells {
		avg, _ := stats.GroupAverage(rates[i], stats.GroupAVG)
		t.Set(cl.rule.String(), fmt.Sprintf("p=%d", cl.p), avg)
	}
	return []*stats.Table{t}, nil
}

// ablVariation runs the §3.3 history-variation grids: path lengths × the
// include flag, batched over the whole grid.
func ablVariation(ctx *Context, t *stats.Table, offRow, onRow string,
	set func(cfg *core.Config, include bool), full bool) ([]*stats.Table, error) {
	paths := []int{2, 4, 6, 8, 12}
	var cfgs []core.Config
	for _, p := range paths {
		for _, include := range []bool{false, true} {
			cfg := exactConfig(p)
			set(&cfg, include)
			cfgs = append(cfgs, cfg)
		}
	}
	var rates []map[string]float64
	var err error
	if full {
		rates, err = ctx.SweepConfigsFull(cfgs)
	} else {
		rates, err = ctx.SweepConfigs(cfgs)
	}
	if err != nil {
		return nil, err
	}
	for i, p := range paths {
		for j, row := range []string{offRow, onRow} {
			avg, _ := stats.GroupAverage(rates[2*i+j], stats.GroupAVG)
			t.Set(row, fmt.Sprintf("p=%d", p), avg)
		}
	}
	return []*stats.Table{t}, nil
}

func runAblCond(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§3.3 ablation: conditional targets in the history (AVG)", "history")
	return ablVariation(ctx, t, "indirect-only", "with-conditionals",
		func(cfg *core.Config, include bool) { cfg.IncludeCond = include }, true)
}

func runAblAddr(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§3.3 ablation: branch addresses in the history (AVG)", "history")
	return ablVariation(ctx, t, "targets-only", "targets+addresses",
		func(cfg *core.Config, include bool) { cfg.IncludeAddress = include }, false)
}
