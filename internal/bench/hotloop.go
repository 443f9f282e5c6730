package bench

import (
	"fmt"
	"runtime"

	"streamtok/internal/analysis"
	"streamtok/internal/bpe"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// Hotloop sweeps the fused fast engine (ISSUE 2): for each workload it
// compares the split interpreter loops, the fused action-table engine
// with accel states disabled, and the full fused engine with bulk run
// skipping, reporting MB/s, the speedup of fused over split, and
// accel_gain, fused over fused-noaccel: the accel scan's own layer,
// below 1 where the scans cost more than they skip. The run-heavy rows
// (long JSON strings, column-aligned log whitespace, long CSV fields)
// are where the accel states pay off most; on the realistic rows runs
// are a few bytes long, so there the gain is the SWAR scan's. The yaml and
// prompts rows (the BPE pretokenizer on prompt text) cover the packed
// K=2 single-table engine. The three engines run trial by trial in
// turn and each keeps its fastest trial (interleavedMBps), so the
// speedup column does not follow the host's load between engines.
func Hotloop(cfg Config) Table {
	t := Table{
		Title: "Hotloop: fused engine vs split loops (MB/s)",
		Note: fmt.Sprintf("fused = action-table fusion + accel states; noaccel isolates the fusion layer; each engine's fastest of interleaved trials; MB/s are host-dependent (host %s/%s %s NumCPU=%d)",
			runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU()),
		Header: []string{"workload", "grammar", "mode", "accel", "split", "fused-noaccel", "fused", "speedup", "accel_gain"},
	}
	type workloadCase struct {
		name    string
		grammar string
		input   []byte
	}
	n := cfg.size(4_000_000)
	mustGen := func(format string) []byte {
		in, err := workload.Generate(format, cfg.Seed, n)
		if err != nil {
			panic(err)
		}
		return in
	}
	cases := []workloadCase{
		{"json", "json", mustGen("json")},
		{"csv", "csv", mustGen("csv")},
		{"log", "log", mustGen("log")},
		{"xml", "xml", mustGen("xml")},
		{"json-longstr", "json", workload.JSONWithTokenLen(cfg.Seed, n, 512)},
		{"log-aligned", "log", workload.LogAligned(cfg.Seed, n, 32)},
		{"csv-longfield", "csv", workload.CSVWithTokenLen(cfg.Seed, n, 256)},
		{"yaml", "yaml", mustGen("yaml")},
		{"prompts", "pretok", workload.Prompts(cfg.Seed, n)},
	}
	for _, c := range cases {
		var m *tokdfa.Machine
		if c.grammar == "pretok" {
			m = tokdfa.MustCompile(bpe.PretokGrammar(), tokdfa.Options{Minimize: true})
		} else {
			spec, err := grammars.Lookup(c.grammar)
			if err != nil {
				panic(err)
			}
			m = spec.Machine()
		}
		res := analysis.Analyze(m)
		split, err := core.NewWithKBudget(m, res.MaxTND, tepath.Limits{}, -1)
		if err != nil {
			panic(err)
		}
		noaccel, err := core.NewNoAccelWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		fusedTok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		r := interleavedMBps(cfg.Trials, c.input, split, noaccel, fusedTok)
		sp, na, fu := r[0], r[1], r[2]
		t.Rows = append(t.Rows, []string{
			c.name, c.grammar, fusedTok.EngineMode(), itoa(fusedTok.AccelStates()),
			fmt.Sprintf("%.1f", sp), fmt.Sprintf("%.1f", na), fmt.Sprintf("%.1f", fu),
			fmt.Sprintf("%.2fx", fu/sp), fmt.Sprintf("%.2fx", fu/na),
		})
	}
	return t
}
