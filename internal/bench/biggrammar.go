package bench

import (
	"fmt"
	"runtime"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// bigGrammarRuleCounts are the synthetic keyword-grammar sizes the
// experiment compiles. Fixed (never scaled by Config.Scale) so the row
// keys of a reduced-scale CI run match the committed baseline — Scale
// stretches the tokenized input, not the grammars.
var bigGrammarRuleCounts = []int{1000, 10000}

// Biggrammar measures the byte-class compressed table substrate across
// grammar scales: for every catalog grammar with a workload generator
// and for synthetic keyword grammars of 1k and 10k rules, the byte-class
// count C, the compressed DFA table bytes against the dense 256-ary
// baseline (the ratio is ~C/256), the certified full-engine resident
// footprint, compile time, and hot-path throughput on a format-faithful
// input. The big rows are the point: at 10k rules the dense DFA table
// alone is tens of MB and the dense-era fused budget check refused to
// fuse, while the compressed layout serves fused under the default
// 16 MB budget.
func Biggrammar(cfg Config) Table {
	t := Table{
		Title: "Biggrammar: byte-class compressed tables vs the dense baseline, catalog and 1k–10k-rule grammars",
		Header: []string{"grammar", "rules", "dfa_states", "classes",
			"dense_dfa_bytes", "dfa_bytes", "ratio", "resident_bytes", "mode", "packed_states", "compile_s", "mbps"},
	}
	n := cfg.size(1 << 20)

	for _, spec := range grammars.All() {
		in, err := workload.Generate(spec.Name, cfg.Seed, n)
		if err != nil {
			if spec.Name != "sql-inserts" {
				continue // no format-faithful generator for this grammar
			}
			in = workload.SQLInserts(cfg.Seed, n)
		}
		t.Rows = append(t.Rows, bigGrammarRow(cfg, spec.Name, spec.Grammar(), in))
	}
	for _, rules := range bigGrammarRuleCounts {
		srcs, err := workload.BigGrammarRules(rules)
		if err != nil {
			panic(err)
		}
		in, err := workload.BigGrammarInput(cfg.Seed, n, rules)
		if err != nil {
			panic(err)
		}
		name := fmt.Sprintf("big-%dk", rules/1000)
		t.Rows = append(t.Rows, bigGrammarRow(cfg, name, tokdfa.MustParseGrammar(srcs...), in))
	}
	t.Note = fmt.Sprintf("dense_dfa_bytes is the 256-ary layout the pre-v3 format stored; ratio = dfa_bytes/dense_dfa_bytes (~C/256); resident_bytes is the certified full-engine footprint; packed_states is the minimized K>=2 product a fused-k<K> engine runs (0 for K<=1 and for products past the 1024-state cap); input %d B per row; compile_s and mbps are host-dependent (host %s/%s %s NumCPU=%d)",
		n, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU())
	return t
}

// bigGrammarRow compiles g, certifies the default engine, and tokenizes
// in on it, returning one table row.
func bigGrammarRow(cfg Config, name string, g *tokdfa.Grammar, in []byte) []string {
	var m *tokdfa.Machine
	compile := timeIt(1, func() {
		m = tokdfa.MustCompile(g, tokdfa.Options{Minimize: true})
	})
	ratio := fmt.Sprintf("%.3f", float64(m.DFA.TableBytes())/float64(cert.DenseDFABytes(m)))
	res := analysis.Analyze(m)
	if !res.Bounded() {
		return []string{name, itoa(len(g.Rules)), itoa(m.DFA.NumStates()), itoa(m.DFA.NumClasses()),
			itoa(cert.DenseDFABytes(m)), itoa(m.DFA.TableBytes()), ratio,
			"-", "unbounded", "0", secs(compile), "-"}
	}
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		panic(fmt.Sprintf("biggrammar %s: %v", name, err))
	}
	c, err := cert.New(m, res, tok)
	if err != nil {
		panic(fmt.Sprintf("biggrammar %s: certify: %v", name, err))
	}
	if err := c.VerifyStatic(m, res.MaxTND); err != nil {
		panic(fmt.Sprintf("biggrammar %s: fresh certificate does not verify: %v", name, err))
	}
	emit := func(token.Token, []byte) {}
	elapsed := timeIt(cfg.Trials, func() {
		s := tok.NewStreamer()
		s.Feed(in, emit)
		s.Close(emit)
	})
	return []string{
		name,
		itoa(len(g.Rules)),
		itoa(m.DFA.NumStates()),
		itoa(c.NumClasses),
		itoa(c.DenseTableBytes),
		itoa(m.DFA.TableBytes()),
		ratio,
		itoa(c.TableBytes),
		tok.EngineMode(),
		itoa(tok.PackedStates()),
		secs(compile),
		mbps(len(in), elapsed),
	}
}
