package core_test

import (
	"strings"
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
// serves: tsv, yaml, the pretokenizer, json and sql-inserts pack, while
// xml passes the construction's work bound and the 1k/10k-rule keyword
// grammars do not fit the action byte, so they keep the split Fig. 6
// loop over an eager TeDFA; rk12-lazy, whose TeDFA passes the eager cap,
// runs it lazily.
func TestPackedEngineSelection(t *testing.T) {
	catalog := func(name string) *tokdfa.Machine {
		spec, err := grammars.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Machine()
	}
	want := map[string]string{}
	machines := map[string]*tokdfa.Machine{}
	for name, mode := range map[string]string{"tsv": "fused-k2", "yaml": "fused-k2", "json": "fused-k3", "sql-inserts": "fused-k3", "xml": "split-general"} {
		want[name], machines[name] = mode, catalog(name)
	}
	for _, c := range testutil.Corpus() {
		switch c.Name {
		case "pretok":
			want[c.Name], machines[c.Name] = "fused-k2", c.Compile(true)
		case "rk12-lazy":
			want[c.Name], machines[c.Name] = "split-general-lazy", c.Compile(true)
		}
	}
	for _, n := range []int{1000, 10000} {
		if n == 10000 && testing.Short() {
			continue
		}
		rules, err := workload.BigGrammarRules(n)
		if err != nil {
			t.Fatal(err)
		}
		want[rules[0]] = "split-general"
		machines[rules[0]] = tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true})
	}
	for name, m := range machines {
		tok := mustK(t, m)
		packed := tok.PackedStates() > 0
		if tok.EngineMode() != want[name] || packed != strings.HasPrefix(want[name], "fused") {
			t.Errorf("%.20s: mode %s, %d packed states; want %s", name, tok.EngineMode(), tok.PackedStates(), want[name])
		}
		if packed && tok.TeDFASize() != 0 {
			t.Errorf("%.20s: packed engine kept a %d-state TeDFA", name, tok.TeDFASize())
		}
	}
}
