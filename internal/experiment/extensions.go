package experiment

import (
	"fmt"
	"sync"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/cost"
	"github.com/oocsb/ibp/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "ext-next",
		Artifact: "§8.1 (future work)",
		Desc:     "run-ahead prediction: target and next-branch-address accuracy",
		Run:      runExtNext,
	})
	register(Experiment{
		ID:       "ext-uneven",
		Artifact: "§8.1 (future work)",
		Desc:     "hybrid components of unequal sizes",
		Run:      runExtUneven,
	})
	register(Experiment{
		ID:       "ext-ittage",
		Artifact: "lineage (ITTAGE)",
		Desc:     "geometric-history tagged predictor vs the paper's best hybrid",
		Run:      runExtITTAGE,
	})
	register(Experiment{
		ID:       "cost",
		Artifact: "§1 (motivation)",
		Desc:     "execution-time impact: speedup of hybrid prediction over a BTB",
		Run:      runCost,
	})
}

// nextRates measures, per benchmark, the target and next-site misprediction
// rates of the run-ahead predictor.
func (c *Context) nextRates(p, entries int) (map[string]float64, map[string]float64, error) {
	target := make(map[string]float64, len(c.Suite))
	next := make(map[string]float64, len(c.Suite))
	var mu sync.Mutex
	err := forEach(c.ctx, len(c.Suite), func(i int) error {
		bench := c.Suite[i]
		nb, err := core.NewNextBranch(p, "assoc4", entries)
		if err != nil {
			return err
		}
		tr := c.Trace(bench)
		var tm, nm, n int
		havePrev := false
		var prevNext uint32
		prevNextOK := false
		for _, r := range tr {
			if !r.Kind.Indirect() {
				continue
			}
			if havePrev {
				// Score the next-site prediction made at the
				// previous branch against this branch's pc.
				if !prevNextOK || prevNext != r.PC {
					nm++
				}
			}
			if t, ok := nb.Predict(r.PC); !ok || t != r.Target {
				tm++
			}
			prevNext, prevNextOK = nb.PredictNext(r.PC)
			nb.Update(r.PC, r.Target)
			havePrev = true
			n++
		}
		mu.Lock()
		if n > 0 {
			target[bench.Name] = 100 * float64(tm) / float64(n)
			next[bench.Name] = 100 * float64(nm) / float64(n-1)
		}
		mu.Unlock()
		return nil
	})
	return target, next, err
}

func runExtNext(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§8.1 extension: run-ahead prediction (AVG, assoc4/4096)", "metric")
	for _, p := range []int{1, 2, 3, 4, 6} {
		target, next, err := ctx.nextRates(p, 4096)
		if err != nil {
			return nil, err
		}
		col := fmt.Sprintf("p=%d", p)
		avgT, _ := stats.GroupAverage(target, stats.GroupAVG)
		avgN, _ := stats.GroupAverage(next, stats.GroupAVG)
		t.Set("target-miss", col, avgT)
		t.Set("next-site-miss", col, avgN)
	}
	return []*stats.Table{t}, nil
}

func runExtUneven(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§8.1 extension: unequal hybrid component sizes (AVG, p=3.1 assoc4)", "split")
	totals := []int{1024, 4096, 16384}
	rows := []struct {
		row      string
		num, den int // component-1 share of the total
	}{
		{"even(1/2+1/2)", 1, 2},
		{"long-heavy(3/4+1/4)", 3, 4},
		{"short-heavy(1/4+3/4)", 1, 4},
	}
	var specs []SweepSpec
	for _, total := range totals {
		for _, s := range rows {
			e1 := roundPow2(total * s.num / s.den)
			e2 := roundPow2(total - total*s.num/s.den)
			specs = append(specs, tableSpec(core.DualPathConfig(3, "assoc4", e1), core.DualPathConfig(1, "assoc4", e2)))
		}
	}
	rates, err := ctx.SweepBatch(specs)
	if err != nil {
		return nil, err
	}
	for i, total := range totals {
		col := fmt.Sprintf("%d", total)
		for j, s := range rows {
			avg, _ := stats.GroupAverage(rates[i*len(rows)+j], stats.GroupAVG)
			t.Set(s.row, col, avg)
		}
	}
	return []*stats.Table{t}, nil
}

func runExtITTAGE(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("lineage: ITTAGE-style predictor vs the paper's designs (AVG)", "predictor")
	// Budgets in total table entries (ittage: 5 banks + a 2x base).
	bankSizes := []int{128, 512, 2048}
	rows := []string{"ittage", "hybrid-3.1-assoc4", "2lev-p2-assoc4"}
	var specs []SweepSpec
	for _, bankSize := range bankSizes {
		total := 5*bankSize + 2*bankSize
		specs = append(specs,
			SweepSpec{Mk: func() (core.Predictor, error) { return core.NewITTAGE(5, bankSize, 1) }},
			dualPath(1, 3, "assoc4", roundPow2(total/2)),
			tableSpec(boundedConfig(2, 2, "assoc4", roundPow2(total))),
		)
	}
	rates, err := ctx.SweepBatch(specs)
	if err != nil {
		return nil, err
	}
	for i, bankSize := range bankSizes {
		col := fmt.Sprintf("~%d", 5*bankSize+2*bankSize)
		for j, row := range rows {
			avg, _ := stats.GroupAverage(rates[i*len(rows)+j], stats.GroupAVG)
			t.Set(row, col, avg)
		}
	}
	return []*stats.Table{t}, nil
}

func runCost(ctx *Context) ([]*stats.Table, error) {
	model := cost.Default4Wide()
	t := stats.NewTable("§1 motivation: execution-time impact (BTB → hybrid 3.1 assoc4/2048)", "benchmark")
	pair, err := ctx.SweepBatch([]SweepSpec{
		{Mk: func() (core.Predictor, error) { return core.NewBTB(nil, core.UpdateTwoMiss), nil }},
		dualPath(1, 3, "assoc4", 1024),
	})
	if err != nil {
		return nil, err
	}
	btbRates, hybRates := pair[0], pair[1]
	for _, cfg := range ctx.Suite {
		w := cost.Workload{
			InstrPerIndirect: float64(cfg.Meta.InstrPerIndirect),
			CondPerIndirect:  float64(cfg.Meta.CondPerIndirect),
		}
		btb, okB := btbRates[cfg.Name]
		hyb, okH := hybRates[cfg.Name]
		if !okB || !okH {
			continue
		}
		base, err := model.Evaluate(w, btb)
		if err != nil {
			return nil, err
		}
		speedup, err := model.Speedup(w, btb, hyb)
		if err != nil {
			return nil, err
		}
		t.Set(cfg.Name, "btb-miss%", btb)
		t.Set(cfg.Name, "hybrid-miss%", hyb)
		t.Set(cfg.Name, "indirect-share%", 100*base.IndirectShare())
		t.Set(cfg.Name, "speedup%", 100*(speedup-1))
	}
	return []*stats.Table{t}, nil
}
