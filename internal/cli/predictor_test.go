package cli

import (
	"errors"
	"flag"
	"testing"

	"github.com/oocsb/ibp/internal/core"
)

// defaults returns the flags as Register would install them, by actually
// registering on a throwaway FlagSet: the test exercises the same defaults
// the tools ship.
func defaults(t *testing.T) PredictorFlags {
	t.Helper()
	var f PredictorFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidateAcceptsDefaults(t *testing.T) {
	f := defaults(t)
	if err := f.CheckBuild(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if _, err := f.Build(); err != nil {
		t.Fatalf("default flags failed to build: %v", err)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PredictorFlags)
		flag   string
	}{
		{"negative path", func(f *PredictorFlags) { f.Path = -1 }, "p"},
		{"huge path", func(f *PredictorFlags) { f.Path = MaxPathLength + 1 }, "p"},
		{"unknown table", func(f *PredictorFlags) { f.Table = "cuckoo" }, "table"},
		{"non-pow2 assoc", func(f *PredictorFlags) { f.Table = "assoc3" }, "table"},
		{"unknown pred", func(f *PredictorFlags) { f.Pred = "oracle" }, "pred"},
		{"negative entries", func(f *PredictorFlags) { f.Entries = -4 }, "entries"},
		{"malformed hybrid", func(f *PredictorFlags) { f.Hybrid = "3;1" }, "hybrid"},
		{"hybrid out of range", func(f *PredictorFlags) { f.Hybrid = "3,99" }, "hybrid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := defaults(t)
			tc.mutate(&f)
			err := f.CheckBuild()
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			var fe *FlagError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a *FlagError", err)
			}
			if fe.Flag != tc.flag {
				t.Fatalf("error names flag %q, want %q", fe.Flag, tc.flag)
			}
		})
	}
}

func TestValidateAcceptsKnownShapes(t *testing.T) {
	for _, mutate := range []func(*PredictorFlags){
		func(f *PredictorFlags) { f.Table = "assoc4"; f.Entries = 512 },
		func(f *PredictorFlags) { f.Table = "exact"; f.Path = 0 },
		func(f *PredictorFlags) { f.Pred = "btb-2bc" },
		func(f *PredictorFlags) { f.Hybrid = "3,1"; f.Table = "assoc4"; f.Entries = 1024 },
		func(f *PredictorFlags) { f.Path = MaxPathLength; f.Table = "exact" },
	} {
		f := defaults(t)
		mutate(&f)
		if err := f.CheckBuild(); err != nil {
			t.Fatalf("valid flags %+v rejected: %v", f, err)
		}
	}
}

func TestParseITTAGESpec(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		banks, entries, minHist, ok, reason := ParseITTAGE("ittage")
		if !ok || reason != "" {
			t.Fatalf("bare ittage rejected: ok=%v reason=%q", ok, reason)
		}
		if banks != ittageDefBanks || entries != ittageDefEntries || minHist != ittageDefMinHist {
			t.Fatalf("bare ittage = %d,%d,%d; want defaults %d,%d,%d",
				banks, entries, minHist, ittageDefBanks, ittageDefEntries, ittageDefMinHist)
		}
	})
	t.Run("explicit", func(t *testing.T) {
		banks, entries, minHist, ok, reason := ParseITTAGE("ittage:4, 256, 3")
		if !ok || reason != "" {
			t.Fatalf("spec rejected: ok=%v reason=%q", ok, reason)
		}
		if banks != 4 || entries != 256 || minHist != 3 {
			t.Fatalf("got %d,%d,%d; want 4,256,3", banks, entries, minHist)
		}
	})
	t.Run("not ittage", func(t *testing.T) {
		for _, pred := range []string{"2lev", "btb", "ittagex", "ittag"} {
			if _, _, _, ok, _ := ParseITTAGE(pred); ok {
				t.Fatalf("ParseITTAGE(%q) claimed the ittage family", pred)
			}
		}
	})
	t.Run("malformed", func(t *testing.T) {
		for _, pred := range []string{
			"ittage:", "ittage:8", "ittage:8,512", "ittage:8,512,2,9",
			"ittage:x,512,2", "ittage:0,512,2", "ittage:17,512,2",
			"ittage:8,500,2", "ittage:8,0,2", "ittage:8,-512,2", "ittage:8,512,0",
		} {
			_, _, _, ok, reason := ParseITTAGE(pred)
			if !ok {
				t.Fatalf("ParseITTAGE(%q) did not claim the ittage family", pred)
			}
			if reason == "" {
				t.Fatalf("ParseITTAGE(%q) accepted a malformed spec", pred)
			}
		}
	})
}

func TestValidateITTAGE(t *testing.T) {
	f := defaults(t)
	f.Pred = "ittage"
	if err := f.CheckBuild(); err != nil {
		t.Fatalf("bare ittage rejected: %v", err)
	}
	p, err := f.Build()
	if err != nil {
		t.Fatalf("bare ittage failed to build: %v", err)
	}
	if p.Name() == "" {
		t.Fatal("built predictor has no name")
	}

	f.Pred = "ittage:2,128,4"
	if err := f.CheckBuild(); err != nil {
		t.Fatalf("explicit spec rejected: %v", err)
	}
	if _, err := f.Build(); err != nil {
		t.Fatalf("explicit spec failed to build: %v", err)
	}

	f.Pred = "ittage:8,500,2"
	err = f.CheckBuild()
	var fe *FlagError
	if !errors.As(err, &fe) || fe.Flag != "pred" {
		t.Fatalf("malformed spec: want *FlagError on -pred, got %v", err)
	}
}

func TestValidateSeed(t *testing.T) {
	for _, seed := range []int64{0, -1, -1 << 40} {
		err := ValidateSeed(seed)
		var fe *FlagError
		if !errors.As(err, &fe) || fe.Flag != "seed" {
			t.Fatalf("seed %d: want *FlagError on -seed, got %v", seed, err)
		}
	}
	if err := ValidateSeed(1); err != nil {
		t.Fatalf("seed 1 rejected: %v", err)
	}
}

// TestValidateRejectsTablesConstructorsRefuse pins the specs whose table
// constructor once panicked past flag validation (and, on a daemon, killed
// the process from the connection goroutine): each is a *FlagError now.
func TestValidateRejectsTablesConstructorsRefuse(t *testing.T) {
	for _, tc := range []struct {
		pred, table string
		entries     int
		hybrid      string
	}{
		{"btb", "tagless", 1000, ""},
		{"btb-2bc", "assoc4", 96, ""},
		{"btb", "fullassoc", 0, ""},
		{"tcache", "tagless", 1000, ""},
		{"tcache", "exact", 512, ""},
		{"shared", "tagless", 1000, "3,1"},
		{"shared", "fullassoc", 0, "3,1"},
	} {
		f := defaults(t)
		f.Pred, f.Table, f.Entries, f.Hybrid = tc.pred, tc.table, tc.entries, tc.hybrid
		var fe *FlagError
		if err := f.CheckBuild(); !errors.As(err, &fe) {
			t.Errorf("%+v: CheckBuild = %v, want a *FlagError", tc, err)
		}
	}
}

// TestCheckBuildAgreesWithBuild walks a grid of flag sets across every
// family: CheckBuild passes exactly the sets Build builds, Build never
// panics, and Name names what Build returns, so a daemon that only checks
// a spec refuses and names it as one that builds it.
func TestCheckBuildAgreesWithBuild(t *testing.T) {
	built, refused := 0, 0
	for _, pred := range []string{"2lev", "btb", "btb-2bc", "tcache", "ppm", "shared", "ittage", "ittage:2,128,4"} {
		for _, tab := range []string{"", "exact", "unbounded", "tagless", "assoc1", "assoc4", "fullassoc"} {
			for _, entries := range []int{0, 96, 1000, 1024} {
				for _, path := range []int{0, 3, 12, 30, MaxPathLength} {
					for _, prec := range []int{core.AutoPrecision, 0, 4} {
						for _, hybrid := range []string{"", "3,1", "2,2"} {
							f := defaults(t)
							f.Pred, f.Table, f.Entries, f.Path, f.Precision, f.Hybrid = pred, tab, entries, path, prec, hybrid
							if checkAgainstBuild(t, f) {
								built++
							} else {
								refused++
							}
						}
					}
				}
			}
		}
	}
	for _, mutate := range []func(*PredictorFlags){
		func(f *PredictorFlags) { f.Scheme = "zigzag" },
		func(f *PredictorFlags) { f.KeyOp = "add" },
		func(f *PredictorFlags) { f.Update = "never" },
		func(f *PredictorFlags) { f.Scheme, f.KeyOp, f.Update = "pingpong", "concat", "always" },
		func(f *PredictorFlags) { f.HistShare, f.TabShare = 4, 31 },
	} {
		f := defaults(t)
		mutate(&f)
		checkAgainstBuild(t, f)
	}
	if built < 100 || refused < 100 {
		t.Fatalf("the grid built %d specs and refused %d; want both outcomes well covered", built, refused)
	}
}

// checkAgainstBuild checks one flag set and reports whether it built.
func checkAgainstBuild(t *testing.T, f PredictorFlags) bool {
	t.Helper()
	var p core.Predictor
	var buildErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%+v: Build panicked: %v", f, r)
			}
		}()
		p, buildErr = f.Build()
	}()
	err := f.CheckBuild()
	switch {
	case err != nil && buildErr == nil:
		t.Fatalf("%+v: CheckBuild refused a spec Build builds: %v", f, err)
	case err == nil && buildErr != nil:
		t.Fatalf("%+v: CheckBuild passed a spec Build refuses: %v", f, buildErr)
	case err != nil:
		var fe *FlagError
		if !errors.As(err, &fe) {
			t.Fatalf("%+v: CheckBuild error %v is not a *FlagError", f, err)
		}
	case f.Name() != p.Name():
		t.Fatalf("%+v: Name() = %q, Build().Name() = %q", f, f.Name(), p.Name())
	}
	return err == nil
}
