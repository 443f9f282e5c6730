package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tbl(header []string, rows ...[]string) *table {
	return &table{Title: "t", Header: header, Rows: rows}
}

func TestParseCell(t *testing.T) {
	for in, want := range map[string]float64{
		"1.54":  1.54,
		"1.54x": 1.54,
		"83.3%": 83.3,
		"-0.5":  -0.5,
		"12 MB": 12,
		"3e2":   300,
		"0.00":  0,
	} {
		got, err := parseCell(in)
		if err != nil || got != want {
			t.Errorf("parseCell(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "fused", "x2"} {
		if _, err := parseCell(bad); err == nil {
			t.Errorf("parseCell(%q) should fail", bad)
		}
	}
}

func TestDiffHigherBetter(t *testing.T) {
	base := tbl([]string{"mode", "speedup"},
		[]string{"fused", "2.00x"},
		[]string{"split", "1.00x"})
	fresh := tbl([]string{"mode", "speedup"},
		[]string{"fused", "1.60x"}, // -20%: inside 25% tolerance
		[]string{"split", "0.70x"}) // -30%: regression
	res, err := diff(base, fresh, []string{"mode"}, "speedup", 0.25, false, 0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 2 || len(res.Regressions) != 1 || res.Regressions[0].Key != "split" {
		t.Errorf("result %+v", res)
	}
	if !strings.Contains(res.String(), "REGRESSED") {
		t.Errorf("report missing verdict:\n%s", res.String())
	}
}

func TestDiffLowerBetterWithSlack(t *testing.T) {
	base := tbl([]string{"mode", "N", "allocs/stream"},
		[]string{"pooled", "1", "0.00"},
		[]string{"pooled", "2", "0.10"})
	fresh := tbl([]string{"mode", "N", "allocs/stream"},
		[]string{"pooled", "1", "1.50"}, // within the +2 absolute slack
		[]string{"pooled", "2", "9.00"}) // far past it
	res, err := diff(base, fresh, []string{"mode", "N"}, "allocs/stream", 0.25, true, 2, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || res.Regressions[0].Key != "pooled/2" {
		t.Errorf("regressions %+v, want exactly pooled/2", res.Regressions)
	}
}

func TestDiffExact(t *testing.T) {
	base := tbl([]string{"merges", "mode"},
		[]string{"8000", "bpe+fused-general"},
		[]string{"32000", "bpe+split-general"})
	fresh := tbl([]string{"merges", "mode"},
		[]string{"8000", "bpe+fused-general"},  // unchanged: ok
		[]string{"32000", "bpe+fused-general"}) // changed: regression, even "for the better"
	res, err := diff(base, fresh, []string{"merges"}, "mode", 0.25, false, 0, true, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 2 || len(res.Regressions) != 1 || res.Regressions[0].Key != "32000" {
		t.Errorf("result %+v", res)
	}
	if !strings.Contains(res.String(), `"bpe+split-general" -> "bpe+fused-general"`) {
		t.Errorf("exact report should quote both cells:\n%s", res.String())
	}
	// Exact mode must not choke on non-numeric cells.
	if _, err := diff(base, base, []string{"merges"}, "mode", 0.25, false, 0, true, ""); err != nil {
		t.Errorf("exact self-diff on categorical column: %v", err)
	}
}

func TestDiffRowMatching(t *testing.T) {
	base := tbl([]string{"mode", "N", "MB/s"},
		[]string{"pooled", "1", "100"},
		[]string{"pooled", "8", "400"}) // GOMAXPROCS row, absent at CI scale
	fresh := tbl([]string{"mode", "N", "MB/s"},
		[]string{"pooled", "1", "100"},
		[]string{"pooled", "2", "150"}) // new machine's extra row
	res, err := diff(base, fresh, []string{"mode", "N"}, "MB/s", 0.25, false, 0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 || res.SkippedOld != 1 || res.SkippedNew != 1 {
		t.Errorf("matched %d, skippedOld %d, skippedNew %d", len(res.Matched), res.SkippedOld, res.SkippedNew)
	}

	// Nothing in common: the gate must fail loudly, not pass quietly.
	disjoint := tbl([]string{"mode", "N", "MB/s"}, []string{"other", "3", "1"})
	if _, err := diff(base, disjoint, []string{"mode", "N"}, "MB/s", 0.25, false, 0, false, ""); err == nil {
		t.Error("zero matched rows should be an error")
	}
}

func TestDiffOnly(t *testing.T) {
	base := tbl([]string{"mode", "workers", "speedup"},
		[]string{"speculate", "4", "2.00x"},
		[]string{"sharded-server", "4", "3.00x"})
	fresh := tbl([]string{"mode", "workers", "speedup"},
		[]string{"speculate", "4", "0.50x"}, // regressed, but filtered out
		[]string{"sharded-server", "4", "2.90x"})
	res, err := diff(base, fresh, []string{"mode", "workers"}, "speedup", 0.25, false, 0, false, "sharded-server/4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 || res.Matched[0].Key != "sharded-server/4" || len(res.Regressions) != 0 {
		t.Errorf("result %+v", res)
	}
	// A key that matches nothing must fail, not pass an empty gate.
	if _, err := diff(base, fresh, []string{"mode", "workers"}, "speedup", 0.25, false, 0, false, "nope/9"); err == nil {
		t.Error("only with zero matches should be an error")
	}
}

func TestFloorCheck(t *testing.T) {
	fresh := tbl([]string{"mode", "workers", "speedup"},
		[]string{"sharded-server", "1", "1.00x"},
		[]string{"sharded-server", "4", "2.80x"})
	res, err := floorCheck(fresh, []string{"mode", "workers"}, "speedup", 2.5, "sharded-server/4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 || len(res.Regressions) != 0 {
		t.Errorf("result %+v", res)
	}
	if !strings.Contains(res.String(), "floor 2.5") {
		t.Errorf("floor report should state the floor:\n%s", res.String())
	}

	// Below the floor: regression. Without -only, the workers=1 row
	// would also be (wrongly) held to the floor — which is exactly why
	// the zero-match and filtering behavior matter.
	low := tbl([]string{"mode", "workers", "speedup"},
		[]string{"sharded-server", "4", "1.10x"})
	res, err = floorCheck(low, []string{"mode", "workers"}, "speedup", 2.5, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.String(), "REGRESSED") {
		t.Errorf("result %+v\n%s", res, res.String())
	}

	if _, err := floorCheck(low, []string{"mode", "workers"}, "speedup", 2.5, "sharded-server/8"); err == nil {
		t.Error("floor with zero matched rows should be an error")
	}
	junk := tbl([]string{"mode", "speedup"}, []string{"a", "fast"})
	if _, err := floorCheck(junk, []string{"mode"}, "speedup", 1, ""); err == nil {
		t.Error("non-numeric cell should fail the floor check")
	}
}

func TestDiffErrors(t *testing.T) {
	base := tbl([]string{"mode", "speedup"}, []string{"fused", "2.0"})
	if _, err := diff(base, base, []string{"mode"}, "nope", 0.25, false, 0, false, ""); err == nil {
		t.Error("unknown metric column should fail")
	}
	if _, err := diff(base, base, []string{"nope"}, "speedup", 0.25, false, 0, false, ""); err == nil {
		t.Error("unknown key column should fail")
	}
	junk := tbl([]string{"mode", "speedup"}, []string{"fused", "fast"})
	if _, err := diff(base, junk, []string{"mode"}, "speedup", 0.25, false, 0, false, ""); err == nil {
		t.Error("non-numeric metric cell should fail")
	}
}

func TestLoadTable(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"title":"x","header":["a"],"rows":[["1"]]}`), 0o644)
	if tb, err := loadTable(good); err != nil || tb.Header[0] != "a" {
		t.Errorf("loadTable: %v %v", tb, err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{`), 0o644)
	if _, err := loadTable(bad); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := loadTable(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestAgainstCommittedArtifacts: the gate's real invocations — committed
// baseline vs itself — must pass, proving the key/column choices in CI
// match the artifacts' actual shape.
func TestAgainstCommittedArtifacts(t *testing.T) {
	for _, c := range []struct {
		file, keys, col string
		lower, exact    bool
	}{
		{file: "BENCH_hotloop.json", keys: "workload,grammar,mode", col: "speedup"},
		{file: "BENCH_biggrammar.json", keys: "grammar", col: "ratio", lower: true},
		{file: "BENCH_biggrammar.json", keys: "grammar", col: "dfa_bytes", lower: true},
		{file: "BENCH_bpe.json", keys: "merges", col: "ratio", lower: true},
		{file: "BENCH_bpe.json", keys: "merges", col: "dfa_bytes", lower: true},
		{file: "BENCH_bpe.json", keys: "merges", col: "classes", lower: true},
		{file: "BENCH_bpe.json", keys: "merges", col: "mode", exact: true},
		{file: "BENCH_bpe.json", keys: "merges", col: "cache_hit_pct"},
		{file: "BENCH_multicore.json", keys: "mode,workers", col: "speedup"},
	} {
		path := filepath.Join("..", "..", c.file)
		tb, err := loadTable(path)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		res, err := diff(tb, tb, splitKeys(c.keys), c.col, 0.25, c.lower, 2, c.exact, "")
		if err != nil {
			t.Fatalf("%s self-diff: %v", c.file, err)
		}
		if len(res.Regressions) != 0 {
			t.Errorf("%s self-diff regressed: %+v", c.file, res.Regressions)
		}
	}
}
