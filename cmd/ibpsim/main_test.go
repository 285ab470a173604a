package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

func baseOpts() options {
	return options{
		bench: "xlisp", n: 2000, top: 3,
		pf: cli.PredictorFlags{
			Pred: "2lev", Path: 2, HistShare: 32, TabShare: 2,
			Precision: -1, Scheme: "reverse", KeyOp: "xor",
			Table: "unbounded", Update: "2bc",
		},
	}
}

func TestRunTwoLevel(t *testing.T) {
	if err := realMain(baseOpts()); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllPredictorFamilies(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.pf.Pred = "btb" },
		func(o *options) { o.pf.Pred = "btb-2bc"; o.pf.Table = "assoc2"; o.pf.Entries = 64 },
		func(o *options) { o.pf.Pred = "tcache"; o.pf.Table = "tagless"; o.pf.Entries = 256 },
		func(o *options) { o.pf.Pred = "ppm"; o.pf.Hybrid = "3,1"; o.pf.Table = "assoc2"; o.pf.Entries = 256 },
		func(o *options) { o.pf.Pred = "shared"; o.pf.Hybrid = "3,1"; o.pf.Table = "assoc4"; o.pf.Entries = 256 },
		func(o *options) { o.pf.Hybrid = "3,1"; o.pf.Table = "assoc4"; o.pf.Entries = 256 },
		func(o *options) { o.pf.Table = "assoc4"; o.pf.Entries = 128; o.shadow = true; o.sites = true },
		func(o *options) { o.pf.Precision = 0; o.pf.Table = "exact" },
		func(o *options) { o.pf.Update = "always"; o.pf.KeyOp = "concat" },
		func(o *options) { o.warmup = 500 },
	}
	for i, mod := range cases {
		o := baseOpts()
		mod(&o)
		if err := realMain(o); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestRunWholeSuite(t *testing.T) {
	o := baseOpts()
	o.bench = "all"
	o.n = 400
	if err := realMain(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceFile(t *testing.T) {
	cfg, err := workload.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(1000)
	path := filepath.Join(t.TempDir(), "perl.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	o := baseOpts()
	o.bench = ""
	o.traceFile = path
	if err := realMain(o); err != nil {
		t.Fatal(err)
	}
}

func TestBadOptions(t *testing.T) {
	cases := []func(*options){
		func(o *options) { o.pf.Pred = "nonesuch" },
		func(o *options) { o.bench = "nonesuch" },
		func(o *options) { o.pf.Scheme = "nonesuch" },
		func(o *options) { o.pf.KeyOp = "nonesuch" },
		func(o *options) { o.pf.Update = "nonesuch" },
		func(o *options) { o.pf.Hybrid = "3" },
		func(o *options) { o.pf.Hybrid = "a,b" },
		func(o *options) { o.pf.Pred = "ppm" }, // ppm without -hybrid
		func(o *options) { o.traceFile = "/nonexistent"; o.bench = "" },
	}
	for i, mod := range cases {
		o := baseOpts()
		mod(&o)
		if err := realMain(o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestCorruptTraceFile is the table-driven failure-path contract: corrupt
// or truncated inputs are rejected with errors naming the offending file.
func TestCorruptTraceFile(t *testing.T) {
	dir := t.TempDir()
	cfg, err := workload.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.MustGenerate(3000)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/2] ^= 0x08
	cases := []struct {
		name string
		data []byte
	}{
		{"bitflip.trace", flipped},
		{"truncated.trace", clean[:len(clean)/3]},
		{"badmagic.trace", []byte("NOPE\x01\x00")},
		{"empty.trace", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			o := baseOpts()
			o.bench = ""
			o.traceFile = path
			err := realMain(o)
			if err == nil {
				t.Fatal("corrupt trace accepted")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error does not name the file: %v", err)
			}
		})
	}
}

// TestBadTableConfig: an invalid BTB table is a returned error, not an
// os.Exit from a helper.
func TestBadTableConfig(t *testing.T) {
	o := baseOpts()
	o.pf.Pred = "btb"
	o.pf.Table = "nonesuch"
	o.pf.Entries = 64
	if err := realMain(o); err == nil {
		t.Fatal("unknown table kind accepted")
	}
}

// TestUnbuildablePredictorIsFlagError: -p 64 with the default unbounded
// table is in range flag by flag, but the auto precision rule leaves no bits
// per target and full precision needs -table exact. It must fail before any
// trace is built, as a *cli.FlagError that names its flag.
func TestUnbuildablePredictorIsFlagError(t *testing.T) {
	o := baseOpts()
	o.pf.Path = 64
	err := realMain(o)
	var fe *cli.FlagError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "-"+fe.Flag) {
		t.Fatalf("-p 64 with the unbounded table: %v, want a *cli.FlagError naming its flag", err)
	}
}

// TestStatsOutputDeterministic pins the -stats satellite fix: per-kind
// merged table lines print in sorted kind order, so repeated runs of a
// hybrid (whose components hold differently-kinded tables) are byte-equal.
func TestStatsOutputDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 5; run++ {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdout
		os.Stdout = w
		o := baseOpts()
		o.n = 1000
		o.stats = true
		o.pf.Hybrid = "3,1"
		o.pf.Table = "assoc4"
		o.pf.Entries = 128
		errRun := realMain(o)
		w.Close()
		os.Stdout = old
		out, _ := io.ReadAll(r)
		r.Close()
		if errRun != nil {
			t.Fatal(errRun)
		}
		if run == 0 {
			first = string(out)
			if !strings.Contains(first, "tables[assoc4]:") {
				t.Fatalf("no per-kind stats line in output:\n%s", first)
			}
			continue
		}
		if string(out) != first {
			t.Fatalf("run %d output differs:\n%s\n--- vs ---\n%s", run, out, first)
		}
	}
}
