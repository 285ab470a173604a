package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sim"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestSpecMatchesProgram(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at a tiny scale through the command's own
// entry point — untraced on seeds 1 and 2, traced on seed 1: every check
// must pass and every metric BENCHMARK.json names must be printed with its
// unit.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	for _, seed := range []int64{1, 2} {
		for _, traced := range []bool{false, true} {
			if traced && seed != 1 {
				continue
			}
			var out bytes.Buffer
			o := options{workloads: workloadNames, seed: seed, traced: traced, scale: 0.01}
			ok, err := run(o, &out)
			if err != nil {
				t.Fatalf("seed %d traced %v: %v\n%s", seed, traced, err, out.String())
			}
			if !ok {
				t.Fatalf("seed %d traced %v: checks failed\n%s", seed, traced, out.String())
			}
			printed := map[string]bool{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) == 4 && !strings.HasPrefix(line, "#") {
					printed[f[0]+" "+f[1]+" "+f[3]] = true
				}
			}
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for _, w := range workloadNames {
				for name, unit := range want {
					if !printed[w+" "+name+" "+unit] {
						t.Errorf("seed %d traced %v: no line %q", seed, traced, w+" "+name+" <value> "+unit)
					}
				}
			}
			last := strings.TrimSpace(out.String())
			last = last[strings.LastIndexByte(last, '\n')+1:]
			var doc struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(last), &doc); err != nil {
				t.Fatalf("last line is not the JSON document: %v\n%s", err, last)
			}
			if !doc.Correct || doc.Attempted == 0 || len(doc.Metrics) != len(want)*len(workloadNames) {
				t.Errorf("JSON document: correct %v, attempted %d, %d metrics", doc.Correct, doc.Attempted, len(doc.Metrics))
			}
		}
	}
}

// TestChecksRejectMismatches feeds the checkers a Summary that disagrees
// with its reference, a routed Summary without placement, and a wrong
// table digest.
func TestChecksRejectMismatches(t *testing.T) {
	o := options{seed: 1, scale: 0.01}
	spec := servingSpecs["routed"]
	in, err := makeInputs(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := newReferences(in, spec, defaultPredictor())
	if err != nil {
		t.Fatal(err)
	}
	want, err := refs.get(0, refs.base)
	if err != nil {
		t.Fatal(err)
	}
	good := serve.Summary{Predictor: refs.base, Records: len(in.traces[0]), Executed: want.Executed,
		Misses: want.Misses, NoPrediction: want.NoPrediction, Router: &serve.RouterInfo{Backend: "b"}}
	rep := newReport("routed")
	refs.check(rep, sessionOut{sum: good})
	if len(rep.problems) != 0 {
		t.Fatalf("matching summary rejected: %v", rep.problems)
	}
	for name, mutate := range map[string]func(*serve.Summary){
		"misses":       func(s *serve.Summary) { s.Misses++ },
		"noPrediction": func(s *serve.Summary) { s.NoPrediction++ },
		"records":      func(s *serve.Summary) { s.Records-- },
		"no router":    func(s *serve.Summary) { s.Router = nil },
		"failover":     func(s *serve.Summary) { s.Router = &serve.RouterInfo{Backend: "b", Failovers: 1} },
		"predictor":    func(s *serve.Summary) { s.Predictor = "btb" },
	} {
		bad := good
		mutate(&bad)
		rep := newReport("routed")
		refs.check(rep, sessionOut{sum: bad})
		if len(rep.problems) == 0 {
			t.Errorf("%s: mismatched summary accepted", name)
		}
	}

	events := servingSpecs["churn"]
	refs.spec = events
	refs.res = map[refKey]sim.Result{}
	want, _ = refs.get(0, refs.base)
	ok := serve.Summary{Predictor: refs.base, Records: len(in.traces[0]), Executed: want.Executed,
		Misses: want.Misses, NoPrediction: want.NoPrediction}
	rep = newReport("churn")
	refs.check(rep, sessionOut{sum: ok, events: in.indirect[0] - 1, evMisses: want.Misses})
	if len(rep.problems) == 0 {
		t.Error("a missing event was accepted")
	}

	wantD := map[string]string{"fig9/0": "aa", "fig11/0": "bb"}
	if bad := diffDigests(wantD, map[string]string{"fig9/0": "aa", "fig11/0": "bb"}); len(bad) != 0 {
		t.Errorf("equal digests rejected: %v", bad)
	}
	for _, got := range []map[string]string{
		{"fig9/0": "aa", "fig11/0": "cc"},
		{"fig9/0": "aa"},
		{"fig9/0": "aa", "fig11/0": "bb", "fig11/1": "dd"},
	} {
		if bad := diffDigests(wantD, got); len(bad) == 0 {
			t.Errorf("digests %v accepted against %v", got, wantD)
		}
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	wrong := map[string]string{}
	for k := range g.Seeds["1"] {
		wrong[k] = fmt.Sprintf("%064d", 0)
	}
	rep = newReport("sweep")
	checkGolden(rep, options{seed: 1, scale: 1}, wrong)
	if len(rep.problems) != len(wrong) || len(wrong) == 0 {
		t.Errorf("wrong digests gave %d problems for %d tables", len(rep.problems), len(wrong))
	}
}
