package experiment

import (
	"fmt"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ras"
	"github.com/oocsb/ibp/internal/stats"
)

func init() {
	register(Experiment{
		ID:       "ras",
		Artifact: "§2 (premise)",
		Desc:     "return address stack accuracy on workloads with returns",
		Run:      runRAS,
	})
	register(Experiment{
		ID:       "rel-tcache",
		Artifact: "§7 [CHP97]",
		Desc:     "Chang-style pattern-history target cache vs path-based two-level",
		Run:      runRelTCache,
	})
}

func runRAS(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§2: return address stack misprediction (%) by depth", "benchmark")
	depths := []int{1, 2, 4, 8, 16, 64}
	for _, cfg := range ctx.Suite {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg := cfg
		cfg.EmitReturns = true
		tr := cfg.MustGenerate(ctx.TraceLen / 4)
		for _, d := range depths {
			res := ras.Simulate(tr, d)
			t.Set(cfg.Name, fmt.Sprintf("depth=%d", d), res.MissRate())
		}
	}
	return []*stats.Table{t}, nil
}

func runRelTCache(ctx *Context) ([]*stats.Table, error) {
	t := stats.NewTable("§7: target cache (gshare over conditionals) vs path-based (AVG)", "predictor")
	sizes := []int{512, 4096}
	// Chang et al.'s gshare(9) pattern history target cache; the first
	// level sees conditional outcomes, so it needs full traces and batches
	// separately from the indirect-only path-based predictors.
	var tcaches, paths []SweepSpec
	for _, size := range sizes {
		tcaches = append(tcaches, SweepSpec{Mk: func() (core.Predictor, error) {
			return core.NewTargetCache(9, "tagless", size)
		}})
		// The paper's comparable non-hybrid (p=3, tagless) and best
		// hybrid configurations (§7 discussion).
		paths = append(paths,
			tableSpec(boundedConfig(3, bits.Reverse, "tagless", size)),
			dualPath(1, 3, "assoc4", size/2),
		)
	}
	tcache, err := ctx.SweepBatchFull(tcaches)
	if err != nil {
		return nil, err
	}
	path, err := ctx.SweepBatch(paths)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		col := fmt.Sprintf("%d", size)
		avgTC, _ := stats.GroupAverage(tcache[i], stats.GroupAVG)
		t.Set("target-cache(9)", col, avgTC)
		avg2lev, _ := stats.GroupAverage(path[2*i], stats.GroupAVG)
		t.Set("2lev-p3-tagless", col, avg2lev)
		avgHyb, _ := stats.GroupAverage(path[2*i+1], stats.GroupAVG)
		t.Set("hybrid-3.1-assoc4", col, avgHyb)
	}
	return []*stats.Table{t}, nil
}
