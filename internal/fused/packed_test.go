package fused_test

import (
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/fused"
	"streamtok/internal/grammars"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// k2Machine is a bounded machine with K ≥ 2.
type k2Machine struct {
	name string
	m    *tokdfa.Machine
	k    int
}

// k2Machines returns every catalog and corpus grammar with 2 ≤ K, plus
// the 1k- and 10k-rule keyword grammars.
func k2Machines(t *testing.T) []k2Machine {
	t.Helper()
	var out []k2Machine
	add := func(name string, m *tokdfa.Machine) {
		res := analysis.Analyze(m)
		if !res.Bounded() || res.MaxTND < 2 {
			return
		}
		out = append(out, k2Machine{name, m, res.MaxTND})
	}
	for _, spec := range grammars.All() {
		add(spec.Name, spec.Machine())
	}
	for _, c := range testutil.Corpus() {
		add("corpus/"+c.Name, c.Compile(false))
	}
	// The pretokenizer minimized, as bpe.Compile builds it.
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

// TestPackedBuildWorkBounded: on every grammar the packed construction
// writes at most PackedWorkCap window slots (transitions explored times
// slots per state), so a product that aborts costs a bounded slice of
// setup, not a walk of its whole state space (xml's reaches 3,530
// states of 28 slots, rk12-lazy's 20,452 of 91).
func TestPackedBuildWorkBounded(t *testing.T) {
	for _, g := range k2Machines(t) {
		work := fused.PackWork(g.m, g.k)
		t.Logf("%s: k=%d C=%d work %d", g.name, g.k, g.m.DFA.NumClasses(), work)
		if work > fused.PackedWorkCap {
			t.Errorf("%s: work %d, bound %d", g.name, work, fused.PackedWorkCap)
		}
	}
}

// TestPackedPartitionStable: on every grammar that packs, the minimized
// partition is stable (same-block states agree on every action and
// target block), and the pinned grammars minimize to their known sizes:
// a refinement that stops early merges states it must not.
func TestPackedPartitionStable(t *testing.T) {
	want := map[string][2]int{ // reachable, minimized
		"tsv":         {36, 31},
		"yaml":        {92, 83},
		"pretok":      {83, 73},
		"json":        {441, 383},
		"sql-inserts": {423, 337},
	}
	packed := 0
	for _, g := range k2Machines(t) {
		reachable, blocks, err := fused.CheckPackedPartition(g.m, g.k)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if reachable == 0 {
			continue // the construction is past the work bound
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
