package core_test

import (
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// mustK builds the default engine at the machine's analyzed K.
func mustK(t *testing.T, m *tokdfa.Machine) *core.Tokenizer {
	t.Helper()
	res := analysis.Analyze(m)
	if !res.Bounded() {
		t.Fatal("unbounded grammar")
	}
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestPackedEngineSelection pins which grammars the packed product
// serves: tsv, yaml and the pretokenizer pack, while json, xml,
// sql-inserts and the 1k/10k-rule keyword grammars pass the state cap
// and keep the pair-action engine.
func TestPackedEngineSelection(t *testing.T) {
	catalog := func(name string) *tokdfa.Machine {
		spec, err := grammars.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Machine()
	}
	packed := map[string]*tokdfa.Machine{"tsv": catalog("tsv"), "yaml": catalog("yaml")}
	for _, c := range testutil.Corpus() {
		if c.Name == "pretok" {
			packed[c.Name] = c.Compile(true)
		}
	}
	for name, m := range packed {
		tok := mustK(t, m)
		if tok.EngineMode() != "fused-k2" || tok.PackedStates() == 0 {
			t.Errorf("%s: mode %s, %d packed states; want fused-k2", name, tok.EngineMode(), tok.PackedStates())
		}
	}
	general := map[string]*tokdfa.Machine{}
	for _, name := range []string{"json", "xml", "sql-inserts"} {
		general[name] = catalog(name)
	}
	for _, n := range []int{1000, 10000} {
		if n == 10000 && testing.Short() {
			continue
		}
		rules, err := workload.BigGrammarRules(n)
		if err != nil {
			t.Fatal(err)
		}
		general[rules[0]] = tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true})
	}
	for name, m := range general {
		tok := mustK(t, m)
		if tok.EngineMode() != "fused-general" || tok.PackedStates() != 0 {
			t.Errorf("%.20s: mode %s, %d packed states; want fused-general", name, tok.EngineMode(), tok.PackedStates())
		}
	}
}
