package bench

import (
	"fmt"
	"time"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// ObsOverhead measures what the always-on observability counters cost
// (ISSUE 3): for each hotloop workload it times the normal engine
// against a benchmark-only build with the counter updates compiled out
// (core.NewNoObsWithK) and reports the throughput delta. The counters
// update per chunk, per token, and per accel event — never per byte —
// so the overhead target is under 3% everywhere.
func ObsOverhead(cfg Config) Table {
	t := Table{
		Title:  "ObsOverhead: always-on counters vs no-obs build (MB/s)",
		Note:   "no-obs is a benchmark-only variant; overhead = 1 - obs/no-obs",
		Header: []string{"workload", "grammar", "mode", "no-obs", "obs", "overhead"},
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
	}
	var sumOverhead float64
	for _, c := range cases {
		spec, err := grammars.Lookup(c.grammar)
		if err != nil {
			panic(err)
		}
		m := spec.Machine()
		res := analysis.Analyze(m)
		noObs, err := core.NewNoObsWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		obsTok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		r := interleavedMBps(cfg.Trials, c.input, noObs, obsTok)
		no, ob := r[0], r[1]
		overhead := 1 - ob/no
		sumOverhead += overhead
		t.Rows = append(t.Rows, []string{
			c.name, c.grammar, obsTok.EngineMode(),
			fmt.Sprintf("%.1f", no), fmt.Sprintf("%.1f", ob),
			fmt.Sprintf("%+.1f%%", overhead*100),
		})
	}
	t.Rows = append(t.Rows, []string{
		"mean", "-", "-", "-", "-",
		fmt.Sprintf("%+.1f%%", sumOverhead/float64(len(cases))*100),
	})
	return t
}

// interleavedMBps times one stream over input on each tokenizer, trial
// by trial in turn, and returns each tokenizer's fastest trial as MB/s.
// Alternating runs see the same machine drift, and the minimum
// approximates the noise-free time better than the median on shared
// hardware, so ratios between the tokenizers track the code rather
// than the host's load.
func interleavedMBps(trials int, input []byte, toks ...*core.Tokenizer) []float64 {
	emit := func(token.Token, []byte) {}
	run := func(tok *core.Tokenizer) time.Duration {
		start := time.Now()
		s := tok.NewStreamer()
		s.Feed(input, emit)
		s.Close(emit)
		return time.Since(start)
	}
	best := make([]time.Duration, len(toks))
	for i, tok := range toks {
		run(tok) // warm the tables and the page cache
		best[i] = time.Duration(1 << 62)
	}
	for trial := 0; trial < max(trials, 1); trial++ {
		for i, tok := range toks {
			best[i] = min(best[i], run(tok))
		}
	}
	out := make([]float64, len(toks))
	for i, d := range best {
		out[i] = float64(len(input)) / 1e6 / d.Seconds()
	}
	return out
}
