package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"streamtok/internal/workload"
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

// TestFig8Shape: the per-symbol cost of StreamTok must not grow with k
// while flex's does (the asymptotic separation of Fig. 8). It times
// both tools on the table's first and last rows (k = 2 and 128, on
// Fig8's input at scale 0.25) trial by trial in turn and compares each
// cell's fastest trial, so load on the host slows every cell alike and
// a single slow run cannot flip the comparison.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	input := workload.WorstCase(Config{Scale: 0.25}.size(2_000_000))
	var cells []engineRun // streamtok and flex at k = 2, then at k = 128
	for _, k := range []int{2, 128} {
		engines, err := buildEngines(rkMachine(k), 64*1024)
		if err != nil {
			t.Fatal(err)
		}
		if engines[0].name != "streamtok" || engines[1].name != "flex" {
			t.Fatalf("tools %s, %s; want streamtok, flex", engines[0].name, engines[1].name)
		}
		cells = append(cells, engines[0], engines[1])
	}
	best := make([]time.Duration, len(cells))
	for trial := 0; trial < 7; trial++ {
		for i, c := range cells {
			start := time.Now()
			c.run(input)
			if d := time.Since(start); trial == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	stFirst, flexFirst, stLast, flexLast := best[0], best[1], best[2], best[3]
	if stLast > stFirst*4 {
		t.Errorf("streamtok grew with k: %v -> %v", stFirst, stLast)
	}
	if flexLast < flexFirst*4 {
		t.Errorf("flex did not grow with k: %v -> %v", flexFirst, flexLast)
	}
}

// TestMulticoreShape pins the multicore table: one sharded-server row
// at every worker count on the fixed axis, the workers=1 row at exactly
// 1.00x, and the column CI's scaling floor reads.
func TestMulticoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	tab := Multicore(Config{Scale: 1, Seed: 2026, Trials: 1})
	if want := []string{"mode", "workers", "MB/s", "speedup", "p99_ms"}; !reflect.DeepEqual(tab.Header, want) {
		t.Fatalf("header %v, want %v", tab.Header, want)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	for i, w := range []string{"1", "2", "4"} {
		row := tab.Rows[i]
		if len(row) != len(tab.Header) {
			t.Fatalf("row width %d != header %d (%v)", len(row), len(tab.Header), row)
		}
		if row[0] != "sharded-server" || row[1] != w {
			t.Errorf("row %d = %s/%s, want sharded-server/%s", i, row[0], row[1], w)
		}
		if w == "1" && row[3] != "1.00x" {
			t.Errorf("workers=1 speedup = %s, want 1.00x", row[3])
		}
	}
}
