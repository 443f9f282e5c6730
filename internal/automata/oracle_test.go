package automata_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamtok/internal/automata"
	"streamtok/internal/bpe"
	"streamtok/internal/grammars"
	"streamtok/internal/regex"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// literalOracle compiles lits through the regex path: Thompson NFA,
// subset construction, minimization.
func literalOracle(lits [][]byte) *automata.DFA {
	exprs := make([]regex.Node, len(lits))
	for i, lit := range lits {
		exprs[i] = regex.Lit(string(lit))
	}
	return automata.Minimize(automata.Determinize(automata.BuildNFA(exprs)))
}

// TestLiteralSetMatchesMinimize: the direct trie construction is the
// minimized DFA of the literal grammar, table for table — on random
// sets with duplicates, empty literals and unused bytes, where the
// class partition is not byte-complete.
func TestLiteralSetMatchesMinimize(t *testing.T) {
	cases := [][][]byte{
		nil,
		{{}},
		{{}, []byte("a")},
		{[]byte("a"), []byte("a")},
		{[]byte("ab"), []byte("a"), []byte("abc"), []byte("b")},
		{{0x00}, {0xff}, {0x00, 0xff}, {0xff, 0xff, 0x00}},
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 300; trial++ {
		alphabet := "abcd\x00\xff"[:1+rng.Intn(6)]
		lits := make([][]byte, rng.Intn(12))
		for i := range lits {
			lit := make([]byte, rng.Intn(5))
			for j := range lit {
				lit[j] = alphabet[rng.Intn(len(alphabet))]
			}
			lits[i] = lit
		}
		cases = append(cases, lits)
	}
	for i, lits := range cases {
		if got, want := automata.LiteralSet(lits), literalOracle(lits); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d %q: LiteralSet %d states/%d classes, Minimize %d states/%d classes",
				i, lits, got.NumStates(), got.NumClasses(), want.NumStates(), want.NumClasses())
		}
	}
}

// TestSparsifyMatchesReferenceOnCompiled: the free-slot packer lays out
// every catalog grammar, the big keyword grammars and trained vocabulary
// DFAs exactly as the one-base-at-a-time reference packer does.
func TestSparsifyMatchesReferenceOnCompiled(t *testing.T) {
	check := func(name string, d *automata.DFA) {
		t.Helper()
		if !reflect.DeepEqual(automata.Sparsify(d), automata.SparsifyReference(d)) {
			t.Errorf("%s: sparse layout differs from the reference packer", name)
		}
	}
	for _, spec := range grammars.All() {
		check(spec.Name, tokdfa.MustCompile(spec.Grammar(), tokdfa.Options{Minimize: true}).DFA)
	}
	if testing.Short() {
		t.Skip("big grammars and trained vocabularies")
	}
	for _, rules := range []int{1000, 10000} {
		srcs, err := workload.BigGrammarRules(rules)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("big-%d", rules), tokdfa.MustCompile(tokdfa.MustParseGrammar(srcs...), tokdfa.Options{Minimize: true}).DFA)
	}
	corpus := workload.Prompts(42, 1<<20)
	for _, merges := range []int{1000, 4000} {
		v, err := bpe.Train(corpus, merges, bpe.TrainOptions{MaxTokenLen: 7})
		if err != nil {
			t.Fatal(err)
		}
		lits := make([][]byte, v.Size())
		for r := range lits {
			lits[r] = v.Token(r)
		}
		m, err := tokdfa.CompileLiterals(lits, tokdfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("vocab-%d", merges), m.DFA)
	}
}
