package bench

import (
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() Config { return Config{Scale: 0.02, Seed: 2026, Trials: 1} }

// TestTable1Shape pins the Table 1 reproduction: every row present, the
// bounded/unbounded split matching the paper.
func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	want := map[string]string{
		"json": "3", "csv": "1", "tsv": "2", "xml": "6",
		"c": "inf", "r": "inf", "sql": "inf",
	}
	for _, row := range tab.Rows {
		if got := row[3]; got != want[row[0]] {
			t.Errorf("%s: max-TND %s, want %s", row[0], got, want[row[0]])
		}
	}
}

// TestExperimentsRegistry: every experiment resolves and is distinct.
func TestExperimentsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %s", e.Name)
		}
		seen[e.Name] = true
		if _, err := LookupExperiment(e.Name); err != nil {
			t.Errorf("LookupExperiment(%s): %v", e.Name, err)
		}
	}
	if len(seen) != 21 {
		t.Errorf("%d experiments, want 21 (12 paper + ablations + hotloop + latency + lintstats + obsoverhead + certstats + biggrammar + bpe + multicore)", len(seen))
	}
	if _, err := LookupExperiment("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestMicroExperimentsRun smoke-runs the timing experiments at tiny scale:
// each must produce a plausible table.
func TestMicroExperimentsRun(t *testing.T) {
	cfg := tinyConfig()
	for _, name := range []string{"fig8", "fig9", "fig10", "fig11a", "fig11b", "table2", "rq6"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, err := LookupExperiment(name)
			if err != nil {
				t.Fatal(err)
			}
			tab := e.Run(cfg)
			if len(tab.Rows) == 0 || len(tab.Header) == 0 {
				t.Fatalf("%s produced an empty table", name)
			}
			out := tab.Format()
			if !strings.Contains(out, tab.Title) {
				t.Error("Format missing title")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("%s: row width %d != header %d (%v)", name, len(row), len(tab.Header), row)
				}
			}
		})
	}
}

// TestFig8Shape: at small scale the per-symbol cost of StreamTok must not
// grow with k while flex's does (the asymptotic separation of Fig. 8).
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cfg := Config{Scale: 0.25, Seed: 2026, Trials: 3}
	tab := Fig8(cfg)
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	// Columns: k, streamtok s, streamtok MB/s, flex s, flex MB/s, ...
	stFirst, stLast := parseF(t, first[1]), parseF(t, last[1])
	flexFirst, flexLast := parseF(t, first[3]), parseF(t, last[3])
	if stLast > stFirst*4 {
		t.Errorf("streamtok grew with k: %v -> %v", stFirst, stLast)
	}
	if flexLast < flexFirst*4 {
		t.Errorf("flex did not grow with k: %v -> %v", flexFirst, flexLast)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestMulticoreShape pins the multicore table: both execution modes at
// every worker count on the fixed axis, each mode's workers=1 row at
// exactly 1.00x, and the stats columns (the ones CI gates exactly)
// present for speculate+stitch and absent for the scheduler.
func TestMulticoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	tab := Multicore(Config{Scale: 1, Seed: 2026, Trials: 1})
	type key struct{ mode, workers string }
	rows := map[key][]string{}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row width %d != header %d (%v)", len(row), len(tab.Header), row)
		}
		rows[key{row[0], row[1]}] = row
	}
	for _, mode := range []string{"speculate", "sharded-server"} {
		for _, w := range []string{"1", "2", "4"} {
			row, ok := rows[key{mode, w}]
			if !ok {
				t.Fatalf("missing row %s/%s", mode, w)
			}
			if w == "1" && row[3] != "1.00x" {
				t.Errorf("%s workers=1 speedup = %s, want 1.00x", mode, row[3])
			}
			if mode == "sharded-server" {
				if row[5] != "-" || row[6] != "-" || row[7] != "-" {
					t.Errorf("scheduler row has speculation stats: %v", row)
				}
				continue
			}
			for _, col := range []int{5, 6, 7} {
				if _, err := strconv.Atoi(row[col]); err != nil {
					t.Errorf("%s/%s column %s = %q is not an exact count", mode, w, tab.Header[col], row[col])
				}
			}
		}
	}
	if len(tab.Rows) != 6 {
		t.Errorf("%d rows, want 6", len(tab.Rows))
	}
}
