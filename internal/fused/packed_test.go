package fused_test

import (
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/fused"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// k2Machine is a bounded machine with K ≥ 2 and its complete TeDFA.
type k2Machine struct {
	name string
	m    *tokdfa.Machine
	k    int
	te   *tepath.Table
}

// k2Machines returns every catalog and corpus grammar with 2 ≤ K whose
// TeDFA expands eagerly, plus the 1k- and 10k-rule keyword grammars.
func k2Machines(t *testing.T) []k2Machine {
	t.Helper()
	var out []k2Machine
	add := func(name string, m *tokdfa.Machine) {
		res := analysis.Analyze(m)
		if !res.Bounded() || res.MaxTND < 2 {
			return
		}
		te, err := tepath.Build(m, res.MaxTND, tepath.Limits{MaxDFAStates: 1 << 12})
		if err != nil {
			return // lazy TeDFA: no fused engine at all
		}
		out = append(out, k2Machine{name, m, res.MaxTND, te})
	}
	for _, spec := range grammars.All() {
		add(spec.Name, spec.Machine())
	}
	for _, c := range testutil.Corpus() {
		add("corpus/"+c.Name, c.Compile(false))
	}
	// The pretokenizer minimized, as bpe.Compile builds it (unminimized,
	// its 17-class product passes the cap).
	add("pretok", tokdfa.MustCompile(tokdfa.MustParseGrammar(testutil.PretokRules()...), tokdfa.Options{Minimize: true}))
	for _, n := range []int{1000, 10000} {
		rules, err := workload.BigGrammarRules(n)
		if err != nil {
			t.Fatal(err)
		}
		add(rules[0][:8], tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true}))
	}
	return out
}

// TestPackedBuildWorkBounded: the packed construction explores at most
// PackedStateCap × C transitions on every grammar, so a product that
// aborts costs a bounded slice of setup, not a walk of its whole state
// space (json's reaches 118,045 states).
func TestPackedBuildWorkBounded(t *testing.T) {
	for _, g := range k2Machines(t) {
		nc := g.m.DFA.NumClasses()
		work := fused.PackWork(g.m, g.k, g.te)
		t.Logf("%s: k=%d C=%d explored %d", g.name, g.k, nc, work)
		if work > fused.PackedStateCap*nc {
			t.Errorf("%s: explored %d transitions, bound %d × %d", g.name, work, fused.PackedStateCap, nc)
		}
	}
}

// TestPackedPartitionStable: on every grammar that packs, the minimized
// partition is stable (same-block states agree on every action and
// target block), and the pinned grammars minimize to their known sizes:
// a refinement that stops early merges states it must not.
func TestPackedPartitionStable(t *testing.T) {
	want := map[string][2]int{ // reachable, minimized
		"tsv":    {194, 31},
		"yaml":   {563, 83},
		"pretok": {499, 73},
	}
	packed := 0
	for _, g := range k2Machines(t) {
		reachable, blocks, err := fused.CheckPackedPartition(g.m, g.k, g.te)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if reachable == 0 {
			continue // the product is past the cap
		}
		packed++
		if w, ok := want[g.name]; ok && (reachable != w[0] || blocks != w[1]) {
			t.Errorf("%s: %d reachable states minimize to %d, want %d → %d", g.name, reachable, blocks, w[0], w[1])
		}
	}
	if packed < len(want) {
		t.Errorf("only %d grammars pack", packed)
	}
}
