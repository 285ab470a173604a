// Package ibp is a from-scratch reproduction of Driesen & Hölzle, "Accurate
// Indirect Branch Prediction" (UCSB TRCS97-19 / ISCA 1998): two-level
// path-based indirect branch predictors, their hybrid combinations with
// confidence-counter metaprediction, the BTB baselines they are measured
// against, and the simulation substrate (trace format, synthetic benchmark
// suite, bytecode VM) the evaluation runs on.
//
// The package is a thin facade over the implementation packages; it exposes
// everything a downstream user needs to construct predictors, obtain
// workloads, and measure misprediction rates:
//
//	tr := ibp.MustBenchmark("gcc", 100_000)
//	pred := ibp.MustTwoLevel(ibp.Config{
//		PathLength: 3,
//		Precision:  ibp.AutoPrecision,
//		Scheme:     ibp.Reverse,
//		TableKind:  "assoc4",
//		Entries:    1024,
//	})
//	res := ibp.Simulate(pred, tr, ibp.SimOptions{})
//	fmt.Printf("%.2f%% mispredicted\n", res.MissRate())
//
// The cmd/ibpsweep tool regenerates every table and figure of the paper's
// evaluation; see DESIGN.md for the experiment inventory and EXPERIMENTS.md
// for measured-vs-paper results.
package ibp

import (
	"context"

	"github.com/oocsb/ibp/internal/analysis"
	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/history"
	"github.com/oocsb/ibp/internal/minilang"
	"github.com/oocsb/ibp/internal/ras"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/vm"
	"github.com/oocsb/ibp/internal/workload"
)

// Core predictor types and configuration.
type (
	// Predictor is the contract shared by all predictors: one Update call
	// per branch returns the prediction, then trains.
	Predictor = core.Predictor
	// Component is a predictor usable inside hybrids (adds confidence).
	Component = core.Component
	// Config configures a two-level predictor across the paper's design
	// space (path length, sharing, precision, tables, update rule).
	Config = core.Config
	// TwoLevel is the paper's two-level path-based predictor.
	TwoLevel = core.TwoLevel
	// BTB is the branch target buffer baseline.
	BTB = core.BTB
	// Hybrid combines components with confidence metaprediction.
	Hybrid = core.Hybrid
	// UpdateRule selects how entries replace their stored targets.
	UpdateRule = core.UpdateRule
	// KeyOp folds the branch address into the history pattern (§4.2).
	KeyOp = history.KeyOp
	// Scheme is the history pattern bit layout (§5.2.1).
	Scheme = bits.Scheme
)

// Pattern layout schemes (§5.2.1) and key operations (§4.2).
const (
	Concat   = bits.Concat
	Straight = bits.Straight
	Reverse  = bits.Reverse
	PingPong = bits.PingPong

	OpXor    = history.OpXor
	OpConcat = history.OpConcat

	// UpdateTwoMiss is the paper's "2bc" rule (replace a stored target
	// only after two consecutive misses); UpdateAlways replaces on every
	// miss.
	UpdateTwoMiss = core.UpdateTwoMiss
	UpdateAlways  = core.UpdateAlways

	// AutoPrecision selects b = ⌊24/p⌋ bits per history target.
	AutoPrecision = core.AutoPrecision
)

// Predictor constructors.
var (
	// NewTwoLevel builds a two-level predictor from a Config.
	NewTwoLevel = core.NewTwoLevel
	// MustTwoLevel panics on configuration errors.
	MustTwoLevel = core.MustTwoLevel
	// NewBTB builds a branch target buffer (nil table = unbounded).
	NewBTB = core.NewBTB
	// NewHybrid combines components; earlier components win ties.
	NewHybrid = core.NewHybrid
	// NewDualPath is the paper's canonical two-component hybrid.
	NewDualPath = core.NewDualPath
	// NewBPSTHybrid selects components with a per-branch counter table.
	NewBPSTHybrid = core.NewBPSTHybrid
	// NewCascade is a PPM-style longest-match predictor bank.
	NewCascade = core.NewCascade
	// NewSharedHybrid is the §8.1 shared-table hybrid.
	NewSharedHybrid = core.NewSharedHybrid
	// NewTargetCache is the Chang et al. pattern-history target cache.
	NewTargetCache = core.NewTargetCache
)

// Traces and workloads.
type (
	// Trace is an in-memory branch trace.
	Trace = trace.Trace
	// Record is one traced control transfer.
	Record = trace.Record
	// Kind classifies trace records.
	Kind = trace.Kind
	// TraceSummary holds Tables 1–2 style benchmark characteristics.
	TraceSummary = trace.Summary
	// Benchmark is a synthetic benchmark configuration.
	Benchmark = workload.Config
)

// Trace record kinds.
const (
	IndirectCall = trace.IndirectCall
	IndirectJump = trace.IndirectJump
	VirtualCall  = trace.VirtualCall
	SwitchJump   = trace.SwitchJump
	Return       = trace.Return
	Cond         = trace.Cond
	DirectCall   = trace.DirectCall
)

// Trace and workload helpers.
var (
	// ReadTrace and WriteTrace handle the IBPT binary format (v2,
	// length-framed CRC32-checksummed sections). ReadTraceLenient salvages
	// the valid prefix of a damaged stream, returning the records recovered
	// together with a *trace.CorruptError (matching ErrCorruptTrace)
	// describing where decoding stopped.
	ReadTrace        = trace.Read
	ReadTraceLenient = trace.ReadLenient
	WriteTrace       = trace.Write
	// Summarize computes benchmark characteristics of a trace.
	Summarize = trace.Summarize
	// ConcatTraces joins traces back to back; InterleaveTraces merges
	// them round-robin in chunks (multiprogramming studies).
	ConcatTraces     = trace.Concat
	InterleaveTraces = trace.Interleave
	// Benchmarks returns the paper's 17-benchmark suite configurations.
	Benchmarks = workload.Suite
	// BenchmarkByName looks up one suite benchmark.
	BenchmarkByName = workload.ByName
	// LoadBenchmark reads a custom benchmark configuration from a JSON
	// file (see Benchmark/workload.Config for the fields).
	LoadBenchmark = workload.LoadConfig
)

// Site analysis.
type (
	// SiteProfile describes one branch site's dynamic behaviour.
	SiteProfile = analysis.SiteProfile
	// SiteBreakdown aggregates sites by behaviour class.
	SiteBreakdown = analysis.Breakdown
)

var (
	// ProfileSites computes per-site behaviour profiles of a trace.
	ProfileSites = analysis.Profile
	// SummarizeSites buckets profiles into behaviour classes.
	SummarizeSites = analysis.Summarize
)

// DefaultTraceLen is the default trace length in indirect branches.
const DefaultTraceLen = workload.DefaultBranches

// MustBenchmark generates n indirect branches of the named suite benchmark
// (panicking on unknown names; see Benchmarks for the list).
func MustBenchmark(name string, n int) Trace {
	cfg, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return cfg.MustGenerate(n)
}

// Simulation.
type (
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// SimResult reports misprediction accounting.
	SimResult = sim.Result
)

// ErrCorruptTrace is the sentinel matched (via errors.Is) by every
// corruption error the trace readers produce.
var ErrCorruptTrace = trace.ErrCorrupt

// Simulate drives a predictor over a trace.
func Simulate(p Predictor, tr Trace, opts SimOptions) SimResult {
	return sim.Run(p, tr, opts)
}

// SimulateContext is Simulate with cooperative cancellation: once ctx is
// done the partial result accumulated so far is returned with ctx.Err().
func SimulateContext(ctx context.Context, p Predictor, tr Trace, opts SimOptions) (SimResult, error) {
	return sim.RunContext(ctx, p, tr, opts)
}

// MissRate simulates with default options and returns the misprediction
// percentage.
func MissRate(p Predictor, tr Trace) float64 {
	return sim.MissRate(p, tr)
}

// Return address stack (§2 premise).
var (
	// NewRAS builds a bounded return address stack.
	NewRAS = ras.New
	// SimulateRAS measures return prediction accuracy over a trace.
	SimulateRAS = ras.Simulate
)

// Bytecode VM: real programs as trace sources.
type (
	// VMOptions configures VM tracing.
	VMOptions = vm.Options
	// VMProgram is an executable bytecode image.
	VMProgram = vm.Program
)

var (
	// CompileMinilang compiles minilang source (a tiny imperative
	// language) into a VM program; RunMinilang also executes it and
	// returns the VM for trace access.
	CompileMinilang = minilang.Compile
	RunMinilang     = minilang.Run
	// AssembleVM translates VM assembly into a program.
	AssembleVM = vm.Assemble
	// NewVM constructs a VM over a program.
	NewVM = vm.New
	// RunVMSample executes a built-in sample program ("fib", "tokens",
	// "shapes", "dispatch") and returns its result and branch trace.
	RunVMSample = vm.RunSample
	// VMSampleNames lists the built-in sample programs.
	VMSampleNames = vm.SampleNames
)
