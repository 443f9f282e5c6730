package analysis

import (
	"math/rand"
	"testing"

	"streamtok/internal/charclass"
	"streamtok/internal/reference"
	"streamtok/internal/regex"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
)

// TestAnalysisMatchesBruteForce is the Theorem 15 property test: on random
// grammars, the Fig. 3 algorithm agrees with an independent bounded
// breadth-first search for the maximum token neighbor distance.
func TestAnalysisMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 500; trial++ {
		g := testutil.RandomGrammar(rng)
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := Analyze(m)
		bound := m.DFA.NumStates() + 2
		brute := reference.BruteMaxTND(m, bound)
		switch {
		case res.Bounded() && brute != res.MaxTND:
			t.Fatalf("grammar %v: analysis %d, brute force %d", g, res.MaxTND, brute)
		case !res.Bounded() && brute != reference.Infinite:
			t.Fatalf("grammar %v: analysis says unbounded, brute force %d", g, brute)
		}
	}
}

// TestAnalysisMatchesEnumeration pins the analysis to every bounded
// corpus case's known max-TND, and validates the cases up to 3 against
// the most literal reading of Definition 7: exhaustive string
// enumeration.
func TestAnalysisMatchesEnumeration(t *testing.T) {
	for _, c := range testutil.Corpus() {
		if c.KnownTND < 0 {
			continue // unbounded or unchecked
		}
		m := c.Compile(false)
		if got := Analyze(m).MaxTND; got != c.KnownTND {
			t.Errorf("%s: analysis says max-TND %d, corpus says %d", c.Name, got, c.KnownTND)
		}
		if c.KnownTND > 3 {
			continue // enumeration horizon too small for deep cases
		}
		got, pairs := reference.NeighborPairsUpTo(m, c.Alphabet, c.KnownTND+5)
		if got != c.KnownTND {
			t.Errorf("%s: enumeration found max distance %d (over %d pairs), want %d",
				c.Name, got, pairs, c.KnownTND)
		}
	}
}

// TestLemma11Dichotomy: TkDist(L) is ∞ or ≤ m+1 for the minimal DFA size m.
func TestLemma11Dichotomy(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		g := testutil.RandomGrammar(rng)
		m, err := tokdfa.Compile(g, tokdfa.Options{Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		res := Analyze(m)
		if res.Bounded() && res.MaxTND > DichotomyBound(m.DFA.NumStates()) {
			t.Fatalf("grammar %v: TND %d exceeds Lemma 11 bound %d (minimal DFA %d states)",
				g, res.MaxTND, DichotomyBound(m.DFA.NumStates()), m.DFA.NumStates())
		}
	}
}

// TestTheorem13Reduction checks both directions of the reduction:
// r universal over Σ ⟺ TkDist([f(r)]) ≤ 1.
func TestTheorem13Reduction(t *testing.T) {
	sigma := charclass.Of('a', 'b')
	const marker = '#'
	cases := []struct {
		src       string
		universal bool
	}{
		{`[ab]*`, true},
		{`(a|b)*`, true},
		{`[ab]*a?`, true},
		{`([ab][ab])*([ab])?`, true},
		{`a*`, false},            // misses "b"
		{`[ab]+`, false},         // misses ε (case (i) of the reduction)
		{`(ab)*`, false},         // misses "a"
		{`[ab]*a`, false},        // misses ε and "b"
		{`(a|b)*a(a|b)*`, false}, // misses ε and all-b strings
	}
	for _, c := range cases {
		r := regex.MustParse(c.src)
		if got := IsUniversal(r, sigma); got != c.universal {
			t.Fatalf("IsUniversal(%q) = %v, want %v", c.src, got, c.universal)
		}
		f := Theorem13Reduction(r, sigma, marker)
		g := &tokdfa.Grammar{Rules: []tokdfa.Rule{{Name: "f(r)", Expr: f}}}
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		atMost1 := TokenDistAtMost(m, 1)
		if atMost1 != c.universal {
			t.Errorf("%q: universal=%v but TkDist(f(r))≤1 is %v (TkDist=%s)",
				c.src, c.universal, atMost1, Analyze(m).String())
		}
	}
}

// TestAnalysisIterationBound: the loop runs at most |A|+2 times (Fig. 3
// guard), so the analysis is O(M²) overall.
func TestAnalysisIterationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 200; trial++ {
		g := testutil.RandomGrammar(rng)
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := Analyze(m)
		if res.Iterations > m.DFA.NumStates()+2 {
			t.Fatalf("grammar %v: %d iterations > |A|+2 = %d", g, res.Iterations, m.DFA.NumStates()+2)
		}
	}
}

// TestEmptyAndDegenerateGrammars covers edge cases: empty-language rules,
// ε-only rules, and rules that never match.
func TestEmptyAndDegenerateGrammars(t *testing.T) {
	cases := []struct {
		rules []string
		want  int
	}{
		{[]string{`[]`}, 0},         // empty language: no tokens
		{[]string{`()`}, 0},         // ε only: no nonempty tokens
		{[]string{`()|a`}, 0},       // ε and "a": single-char tokens only
		{[]string{`a`, `[]`}, 0},    // second rule dead
		{[]string{`a|()`, `b+`}, 1}, // b+ extends by one
	}
	for _, c := range cases {
		m := compile(t, false, c.rules...)
		if got := MaxTND(m); got != c.want {
			t.Errorf("%v: MaxTND = %v, want %v", c.rules, got, c.want)
		}
	}
}
