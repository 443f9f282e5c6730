package tepath_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
)

func machineFor(t *testing.T, rules ...string) (*tokdfa.Machine, int) {
	t.Helper()
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{})
	res := analysis.Analyze(m)
	if !res.Bounded() {
		t.Fatalf("grammar %v unbounded", rules)
	}
	return m, res.MaxTND
}

// TestEagerLazyAgree: a complete table and a clone of the unexpanded
// template grown on demand must make identical Step/Maximal decisions
// along random byte sequences.
func TestEagerLazyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() || res.MaxTND < 2 {
			continue
		}
		eager, err := tepath.Build(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		tmpl, err := tepath.New(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		lazy := tmpl.Clone()
		se, sl := eager.Start, lazy.Start
		for i := 0; i < 4096; i++ {
			b := c.Alphabet[rng.Intn(len(c.Alphabet))]
			se = eager.Step(se, b)
			sl = lazy.Step(sl, b)
			for q := 0; q < m.DFA.NumStates(); q++ {
				if !m.DFA.IsFinal(q) {
					continue
				}
				if eager.Maximal(q, se) != lazy.Maximal(q, sl) {
					t.Fatalf("%s: Maximal(%d) disagrees after %d bytes", c.Name, q, i+1)
				}
			}
		}
		if tmpl.NumStates() != 1 || tmpl.Complete() || !eager.Complete() {
			t.Errorf("%s: template grew to %d states (complete=%v), eager complete=%v",
				c.Name, tmpl.NumStates(), tmpl.Complete(), eager.Complete())
		}
	}
}

// TestExpandReproducesBuild: expanding a fresh clone of the template
// reproduces Build exactly, numbering included; a clone that already
// grew on demand closes to the same number of states (numbered in
// discovery order); and a cap below the closure size fails with
// ErrTooLarge.
func TestExpandReproducesBuild(t *testing.T) {
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() || res.MaxTND < 2 {
			continue
		}
		eager, err := tepath.Build(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		tmpl, err := tepath.New(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		fresh := tmpl.Clone()
		if err := fresh.Expand(eager.NumStates()); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		et, _, eOK, _ := eager.Dump()
		ft, _, fOK, _ := fresh.Dump()
		if !reflect.DeepEqual(et, ft) || !reflect.DeepEqual(eOK, fOK) || fresh.Start != eager.Start {
			t.Errorf("%s: expanded template differs from Build", c.Name)
		}
		grown := tmpl.Clone()
		grown.Step(grown.Step(grown.Start, c.Alphabet[len(c.Alphabet)-1]), c.Alphabet[0])
		if err := grown.Expand(eager.NumStates()); err != nil || grown.NumStates() != eager.NumStates() {
			t.Errorf("%s: grown clone expanded to %d states (%v), want %d", c.Name, grown.NumStates(), err, eager.NumStates())
		}
		if eager.NumStates() > 1 {
			if err := tmpl.Clone().Expand(eager.NumStates() - 1); err != tepath.ErrTooLarge {
				t.Errorf("%s: Expand under the closure size: err = %v, want ErrTooLarge", c.Name, err)
			}
		}
	}
}

// TestExponentialFamilyLazy: on r_k the eager TeDFA is exponential in k
// (2^(k+1)-2 states), but a clone of the template fed the all-a
// worst-case input visits only O(k) powerstates.
func TestExponentialFamilyLazy(t *testing.T) {
	for _, k := range []int{8, 12} {
		m, tnd := machineFor(t, fmt.Sprintf(`a{0,%d}b`, k), `a`)
		if tnd != k {
			t.Fatalf("k=%d: TND %d", k, tnd)
		}
		eager, err := tepath.Build(m, k, tepath.Limits{})
		if err != nil {
			t.Fatalf("k=%d eager: %v", k, err)
		}
		if want := 1<<(k+1) - 2; eager.NumStates() != want {
			t.Errorf("k=%d: eager TeDFA %d states, want %d", k, eager.NumStates(), want)
		}
		tmpl, err := tepath.New(m, k, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		lazy := tmpl.Clone()
		s := lazy.Start
		for i := 0; i < 10000; i++ {
			s = lazy.Step(s, 'a')
		}
		if lazy.NumStates() > 4*k {
			t.Errorf("k=%d: lazy table materialized %d states on all-a input, want O(k)", k, lazy.NumStates())
		}
	}
}

// TestExample19 traces the paper's Example 19: grammar
// [0-9]+(\.[0-9]+)?|[.] on input "1.4..": after A reads "1" (B has seen
// "1.4") the token is NOT maximal; after A reads "1.4" (B has seen
// "1.4..") it IS maximal.
func TestExample19(t *testing.T) {
	m, tnd := machineFor(t, `[0-9]+(\.[0-9]+)?`, `\.`)
	if tnd != 2 {
		t.Fatalf("TND = %d, want 2", tnd)
	}
	table, err := tepath.Build(m, tnd, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("1.4..")
	d := m.DFA

	// B runs 2 ahead of A.
	s := table.Start
	for _, b := range input[:2] {
		s = table.Step(s, b)
	}
	q := d.Start
	// Step 1: A reads '1', B reads '4' (B has now seen "1.4").
	s = table.Step(s, input[2])
	q = d.Step(q, input[0])
	if !d.IsFinal(q) {
		t.Fatal("state after '1' should be final")
	}
	if table.Maximal(q, s) {
		t.Error(`"1" reported maximal; Example 19 says it is not (extends to "1.4")`)
	}
	// Steps 2-3: A reads ".4", B reads "..".
	s = table.Step(s, input[3])
	q = d.Step(q, input[1])
	s = table.Step(s, input[4])
	q = d.Step(q, input[2])
	if !d.IsFinal(q) {
		t.Fatal(`state after "1.4" should be final`)
	}
	if !table.Maximal(q, s) {
		t.Error(`"1.4" not reported maximal; Example 19 says it is`)
	}
}

// TestK1Table checks the Fig. 5 table on Example 18's grammar
// [0-9]+|[ ]+: T[q][a] is true exactly when a cannot extend the token.
func TestK1Table(t *testing.T) {
	m, tnd := machineFor(t, `[0-9]+`, `[ ]+`)
	if tnd != 1 {
		t.Fatalf("TND = %d, want 1", tnd)
	}
	tab := tepath.BuildK1(m)
	d := m.DFA
	qDigits := d.Run([]byte("12"))
	qSpaces := d.Run([]byte(" "))
	if tab.Maximal(qDigits, '3') {
		t.Error("digit extension reported maximal")
	}
	if !tab.Maximal(qDigits, ' ') {
		t.Error("digits before space not reported maximal")
	}
	if !tab.Maximal(qSpaces, 'x') {
		t.Error("spaces before x not reported maximal")
	}
	if tab.Maximal(qSpaces, ' ') {
		t.Error("space extension reported maximal")
	}
	// Non-final states never report maximal.
	if tab.Maximal(d.Start, ' ') {
		t.Error("non-final state reported maximal")
	}
}

// TestBuildErrors: K < 1 rejected; tiny limits trigger ErrTooLarge.
func TestBuildErrors(t *testing.T) {
	m, _ := machineFor(t, `[0-9]+(\.[0-9]+)?`, `[ .]`)
	if _, err := tepath.Build(m, 0, tepath.Limits{}); err == nil {
		t.Error("Build(K=0) should fail")
	}
	if _, err := tepath.Build(m, 2, tepath.Limits{MaxDFAStates: 1}); err != tepath.ErrTooLarge {
		t.Errorf("tiny limit: err = %v, want ErrTooLarge", err)
	}
	if _, err := tepath.Build(m, 2, tepath.Limits{MaxNFAStates: 1}); err != tepath.ErrTooLarge {
		t.Errorf("tiny NFA limit: err = %v, want ErrTooLarge", err)
	}
}
