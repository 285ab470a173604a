package ibp_test

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// resultTable is one results/ CSV: its header, and its rows keyed by their
// first cell.
type resultTable struct {
	header []string
	rows   map[string][]string
	order  []string // first cells, in file order
}

func readResult(t *testing.T, name string) resultTable {
	t.Helper()
	f, err := os.Open(filepath.Join("results", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rt := resultTable{header: recs[0], rows: make(map[string][]string)}
	for _, rec := range recs[1:] {
		rt.rows[rec[0]] = rec
		rt.order = append(rt.order, rec[0])
	}
	return rt
}

// cell returns the numeric cell at (row, column).
func (rt resultTable) cell(t *testing.T, row, col string) float64 {
	t.Helper()
	for i, h := range rt.header {
		if h == col {
			v, err := strconv.ParseFloat(rt.rows[row][i], 64)
			if err != nil {
				t.Fatalf("cell (%s, %s): %v", row, col, err)
			}
			return v
		}
	}
	t.Fatalf("no column %q", col)
	return 0
}

// headlineClaims parses EXPERIMENTS.md's headline-claims table into its
// rows' cells (paper, this repo, verdict), keyed by claim.
func headlineClaims(t *testing.T) map[string][3]string {
	t.Helper()
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "## Headline claims")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no headline-claims section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	claims := make(map[string][3]string)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) == 4 && cells[0] != "claim" && !strings.HasPrefix(cells[0], "---") {
			claims[cells[0]] = [3]string{cells[1], cells[2], cells[3]}
		}
	}
	return claims
}

// TestExperimentsHeadlineClaims ties each "this repo" number in
// EXPERIMENTS.md's headline-claims table to the results/ cell, or ratio of
// cells, it came from: a change that moves one of those CSVs fails here
// until the doc moves with it.
func TestExperimentsHeadlineClaims(t *testing.T) {
	fig2 := readResult(t, "fig2-0.csv")
	fig9 := readResult(t, "fig9-0.csv")
	a1 := readResult(t, "tableA1-0.csv")

	// fig9: the best path length on the AVG row, and its gain over p=0
	// (BTB-2bc).
	bestP, best := 0, fig9.cell(t, "AVG", "p=0")
	for p := 1; p < len(fig9.header)-1; p++ {
		if v := fig9.cell(t, "AVG", fmt.Sprintf("p=%d", p)); v < best {
			bestP, best = p, v
		}
	}
	// tableA1: the smallest size from which the 4-way hybrid beats the
	// equal-size 4-way non-hybrid at every larger size.
	crossover := ""
	for _, size := range a1.order {
		if a1.cell(t, size, "hyb-assoc4") >= a1.cell(t, size, "assoc4") {
			crossover = ""
		} else if crossover == "" {
			crossover = size
		}
	}
	hyb1K, non1K := a1.cell(t, "1024", "hyb-assoc4"), a1.cell(t, "1024", "assoc4")
	hyb4K, full4K := a1.cell(t, "4096", "hyb-assoc4"), a1.cell(t, "4096", "fullassoc")
	if hyb1K >= non1K || hyb4K >= full4K {
		t.Errorf("tableA1 no longer shows the hybrid winning: 1K %.2f vs %.2f, 4K %.2f vs %.2f", hyb1K, non1K, hyb4K, full4K)
	}

	claims := headlineClaims(t)
	for _, c := range []struct {
		claim   string
		col     int // 1: this repo, 2: verdict
		want    string
		fromCSV string
	}{
		{"ideal BTB-2bc misprediction (AVG)", 1, fmt.Sprintf("%.1f%%", fig2.cell(t, "AVG", "btb-2bc")), "fig2-0.csv AVG btb-2bc"},
		{"standard BTB misprediction (AVG)", 1, fmt.Sprintf("%.1f%%", fig2.cell(t, "AVG", "btb")), "fig2-0.csv AVG btb"},
		{"best unconstrained two-level (AVG)", 1, fmt.Sprintf("%.1f%% @ p=%d", best, bestP), "fig9-0.csv AVG minimum"},
		{"two-level improvement over BTB", 1, fmt.Sprintf("%.1f×", fig9.cell(t, "AVG", "p=0")/best), "fig9-0.csv AVG p=0 / minimum"},
		{"hybrid, 4-way 1K entries", 1, fmt.Sprintf("%.2f%%", hyb1K), "tableA1-0.csv 1024 hyb-assoc4"},
		{"hybrid, 4-way 1K entries", 2, fmt.Sprintf("✓ shape (hybrid < non-hybrid %.2f%%)", non1K), "tableA1-0.csv 1024 assoc4"},
		{"hybrid, 4-way 8K entries", 1, fmt.Sprintf("%.2f%%", a1.cell(t, "8192", "hyb-assoc4")), "tableA1-0.csv 8192 hyb-assoc4"},
		{"hybrid beats equal-size non-hybrid above small sizes", 1, fmt.Sprintf("≥%s entries", crossover), "tableA1-0.csv hyb-assoc4 < assoc4 crossover"},
		{"4-way hybrid beats fully-associative above 4K", 1, fmt.Sprintf("✓ (%.2f < %.2f at 4K)", hyb4K, full4K), "tableA1-0.csv 4096 hyb-assoc4, fullassoc"},
	} {
		row, ok := claims[c.claim]
		if !ok {
			t.Errorf("EXPERIMENTS.md headline claims lost the row %q", c.claim)
			continue
		}
		if got := row[c.col]; got != c.want {
			t.Errorf("%q: EXPERIMENTS.md says %q, %s gives %q", c.claim, got, c.fromCSV, c.want)
		}
	}
}
