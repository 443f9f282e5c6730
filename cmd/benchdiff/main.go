// Command benchdiff gates CI on benchmark regressions without gating on
// hardware: it compares one metric column of a fresh BENCH_<exp>.json
// against the committed baseline, row by row, and fails when the metric
// moved past a tolerance in the bad direction.
//
// Usage:
//
//	benchdiff -old BENCH_hotloop.json -new fresh/BENCH_hotloop.json \
//	    -key workload,grammar,mode -col speedup -tol 0.25
//	benchdiff -old BENCH_biggrammar.json -new fresh/BENCH_biggrammar.json \
//	    -key grammar -col dfa_bytes -lower-better -tol 0.01
//
// Rows are matched on the -key columns; rows present on only one side
// (a reduced-scale run drops a row, a new machine adds one) are
// skipped, but zero matched rows is a failure — a gate that compares
// nothing protects nothing. Cells may carry unit suffixes
// ("1.54x", "83.3%"); the numeric prefix is compared.
//
// Categorical columns gate with -exact: the cells are compared as
// strings and any change fails. That is how CI pins bpe's engine-mode
// column — "bpe+fused-k2" silently degrading to split is a
// regression no numeric tolerance can express. -tol, -slack, and
// -lower-better are ignored under -exact.
//
// The gate only trusts hardware-independent columns (ratios like
// hotloop's speedup, sizes like biggrammar's dfa_bytes, counts like
// multicore's segments). Absolute MB/s on a shared CI runner is noise;
// don't point -col at it.
//
// Two refinements for scaling gates:
//
//	benchdiff -new fresh/BENCH_multicore.json -key mode,workers \
//	    -col speedup -min 2.5 -only sharded-server/4
//
// -min replaces the baseline with an absolute one-sided floor: the
// fresh value must be at least -min, no -old involved. That is how a
// multi-core CI runner asserts live scaling that a baseline committed
// from a small host could never express. -only restricts either mode
// to the single row whose joined key matches (still failing on zero
// matched rows), so a floor meant for the 4-worker row cannot
// accidentally demand 2.5x of the workers=1 row.
//
// Setting the environment variable BENCHDIFF_SKIP (to anything) skips
// the comparison with exit 0 — the knob for known-noisy runners; the
// skip is printed loudly so a quiet log can't hide a disabled gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
)

func main() {
	oldPath := flag.String("old", "", "committed baseline BENCH_<exp>.json")
	newPath := flag.String("new", "", "freshly generated BENCH_<exp>.json")
	keys := flag.String("key", "", "comma-separated key columns that identify a row")
	col := flag.String("col", "", "metric column to compare")
	tol := flag.Float64("tol", 0.25, "allowed relative change in the bad direction")
	lowerBetter := flag.Bool("lower-better", false, "metric regresses by going up (default: by going down)")
	slack := flag.Float64("slack", 0, "absolute allowance on top of the relative tolerance (for near-zero baselines)")
	exact := flag.Bool("exact", false, "compare the column as strings; any change regresses (categorical columns)")
	min := flag.String("min", "", "absolute one-sided floor for the fresh column; replaces -old entirely")
	only := flag.String("only", "", "restrict the gate to the single row with this joined key (e.g. sharded-server/4)")
	flag.Parse()

	if os.Getenv("BENCHDIFF_SKIP") != "" {
		fmt.Printf("benchdiff: SKIPPED by BENCHDIFF_SKIP — %s %q NOT compared against %s\n", *newPath, *col, *oldPath)
		return
	}
	if *min != "" {
		if *oldPath != "" {
			fmt.Fprintln(os.Stderr, "benchdiff: -min is a baseline-free floor; drop -old")
			os.Exit(2)
		}
		if *newPath == "" || *keys == "" || *col == "" {
			fmt.Fprintln(os.Stderr, "benchdiff: -min needs -new, -key, and -col")
			flag.Usage()
			os.Exit(2)
		}
		floor, err := strconv.ParseFloat(*min, 64)
		exitOn(err)
		newT, err := loadTable(*newPath)
		exitOn(err)
		report, err := floorCheck(newT, splitKeys(*keys), *col, floor, *only)
		exitOn(err)
		fmt.Print(report.String())
		if len(report.Regressions) > 0 {
			os.Exit(1)
		}
		return
	}
	if *oldPath == "" || *newPath == "" || *keys == "" || *col == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old, -new, -key, and -col are required")
		flag.Usage()
		os.Exit(2)
	}
	oldT, err := loadTable(*oldPath)
	exitOn(err)
	newT, err := loadTable(*newPath)
	exitOn(err)
	report, err := diff(oldT, newT, splitKeys(*keys), *col, *tol, *lowerBetter, *slack, *exact, *only)
	exitOn(err)
	fmt.Print(report.String())
	if len(report.Regressions) > 0 {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
}
