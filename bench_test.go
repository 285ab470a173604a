// Benchmarks: one testing.B target per paper table and figure, each driving
// the same experiment code that cmd/ibpsweep uses to regenerate the artifact
// (at reduced trace length and suite size so `go test -bench=.` stays
// tractable; run `ibpsweep -run <id>` for full-scale numbers), plus raw
// predictor throughput benchmarks.
package ibp_test

import (
	"testing"

	ibp "github.com/oocsb/ibp"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/experiment"
	"github.com/oocsb/ibp/internal/workload"
)

// benchSuite returns a reduced benchmark suite covering all Table 3 groups.
func benchSuite(b *testing.B) []workload.Config {
	b.Helper()
	var out []workload.Config
	for _, name := range []string{"idl", "eqn", "xlisp", "perl", "gcc", "go"} {
		cfg, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, cfg)
	}
	return out
}

// runExperiment benchmarks one registered experiment end to end.
func runExperiment(b *testing.B, id string, traceLen int) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	suite := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := experiment.NewContext(traceLen)
		ctx.Suite = suite
		tables, err := e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// Benchmark characteristics and baselines.
func BenchmarkTable1Characteristics(b *testing.B) { runExperiment(b, "table1", 2000) }
func BenchmarkFig2BTB(b *testing.B)               { runExperiment(b, "fig2", 2000) }

// Unconstrained two-level design space.
func BenchmarkFig5HistorySharing(b *testing.B) { runExperiment(b, "fig5", 1000) }
func BenchmarkFig7TableSharing(b *testing.B)   { runExperiment(b, "fig7", 1000) }
func BenchmarkFig9PathLength(b *testing.B)     { runExperiment(b, "fig9", 1000) }

// Limited precision.
func BenchmarkFig10Precision(b *testing.B)  { runExperiment(b, "fig10", 600) }
func BenchmarkTable5XorConcat(b *testing.B) { runExperiment(b, "table5", 1000) }

// Resource constraints.
func BenchmarkFig11FullAssoc(b *testing.B)  { runExperiment(b, "fig11", 600) }
func BenchmarkFig12Assoc4096(b *testing.B)  { runExperiment(b, "fig12", 1000) }
func BenchmarkFig14Interleave(b *testing.B) { runExperiment(b, "fig14", 1000) }
func BenchmarkFig15Schemes(b *testing.B)    { runExperiment(b, "fig15", 1000) }
func BenchmarkFig16SizeAssoc(b *testing.B)  { runExperiment(b, "fig16", 400) }

// Hybrid predictors and the appendix.
func BenchmarkFig17HybridMatrix(b *testing.B)   { runExperiment(b, "fig17", 300) }
func BenchmarkFig18BestPredictors(b *testing.B) { runExperiment(b, "fig18", 200) }
func BenchmarkTable6HybridBest(b *testing.B)    { runExperiment(b, "table6", 200) }
func BenchmarkTableA1Appendix(b *testing.B)     { runExperiment(b, "tableA1", 200) }
func BenchmarkTableA2PathLengths(b *testing.B)  { runExperiment(b, "tableA2", 200) }

// Ablations of the paper's design claims.
func BenchmarkAblationUpdateRule(b *testing.B)    { runExperiment(b, "abl-update", 1000) }
func BenchmarkAblationCondTargets(b *testing.B)   { runExperiment(b, "abl-cond", 600) }
func BenchmarkAblationAddrTargets(b *testing.B)   { runExperiment(b, "abl-addr", 1000) }
func BenchmarkAblationMetapredictor(b *testing.B) { runExperiment(b, "abl-meta", 1000) }

// Extensions (related work and §8.1 future work).
func BenchmarkExtensionPPM(b *testing.B)            { runExperiment(b, "ext-ppm", 1000) }
func BenchmarkExtensionSharedHybrid(b *testing.B)   { runExperiment(b, "ext-shared", 1000) }
func BenchmarkExtensionThreeComponent(b *testing.B) { runExperiment(b, "ext-3comp", 1000) }
func BenchmarkExtensionNextBranch(b *testing.B)     { runExperiment(b, "ext-next", 1000) }
func BenchmarkExtensionUnevenHybrid(b *testing.B)   { runExperiment(b, "ext-uneven", 1000) }
func BenchmarkExtensionITTAGE(b *testing.B)         { runExperiment(b, "ext-ittage", 1000) }
func BenchmarkCostModel(b *testing.B)               { runExperiment(b, "cost", 1000) }
func BenchmarkRAS(b *testing.B)                     { runExperiment(b, "ras", 2000) }
func BenchmarkRelatedTargetCache(b *testing.B)      { runExperiment(b, "rel-tcache", 1000) }
func BenchmarkSiteClasses(b *testing.B)             { runExperiment(b, "sites", 2000) }
func BenchmarkLimits(b *testing.B)                  { runExperiment(b, "limits", 1500) }
func BenchmarkVMWorkloads(b *testing.B)             { runExperiment(b, "vm", 1000) }
func BenchmarkContextSwitch(b *testing.B)           { runExperiment(b, "ctxswitch", 1000) }

// Raw predictor throughput: nanoseconds per predicted branch, timing the one
// Update call per branch the simulation kernel makes. Predictor construction
// happens outside the timed sections so ns/branch and allocs/op measure the
// steady-state loop, not table allocation.
func benchPredictor(b *testing.B, mk func() ibp.Predictor) {
	b.Helper()
	tr := ibp.MustBenchmark("eqn", 50_000).Indirect()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := mk()
		b.StartTimer()
		for _, r := range tr {
			p.Update(r.PC, r.Target)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr)), "ns/branch")
}

func BenchmarkPredictorBTB(b *testing.B) {
	benchPredictor(b, func() ibp.Predictor { return ibp.NewBTB(nil, ibp.UpdateTwoMiss) })
}

func BenchmarkPredictorTwoLevelBounded(b *testing.B) {
	benchPredictor(b, func() ibp.Predictor {
		return ibp.MustTwoLevel(ibp.Config{
			PathLength: 3, Precision: ibp.AutoPrecision,
			Scheme: ibp.Reverse, TableKind: "assoc4", Entries: 4096,
		})
	})
}

func BenchmarkPredictorTwoLevelExact(b *testing.B) {
	benchPredictor(b, func() ibp.Predictor {
		return ibp.MustTwoLevel(ibp.Config{PathLength: 6, Precision: 0, TableKind: "exact"})
	})
}

func BenchmarkPredictorHybrid(b *testing.B) {
	benchPredictor(b, func() ibp.Predictor {
		h, err := ibp.NewDualPath(3, 1, "assoc4", 2048)
		if err != nil {
			b.Fatal(err)
		}
		return h
	})
}

// BenchmarkPredictorITTAGE times the tuner's escalation target, the
// daemons' bare "-pred ittage".
func BenchmarkPredictorITTAGE(b *testing.B) {
	benchPredictor(b, func() ibp.Predictor {
		it, err := core.NewITTAGE(8, 512, 2)
		if err != nil {
			b.Fatal(err)
		}
		return it
	})
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := cfg.MustGenerate(20_000)
		if len(tr) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkVMDispatchTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := ibp.RunVMSample("tokens", ibp.VMOptions{TraceDispatch: true}); err != nil {
			b.Fatal(err)
		}
	}
}
