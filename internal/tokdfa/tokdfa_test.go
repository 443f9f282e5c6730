package tokdfa_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"streamtok/internal/automata"
	"streamtok/internal/tokdfa"
)

func TestParseGrammar(t *testing.T) {
	g, err := tokdfa.ParseGrammar(`[0-9]+`, `[ ]+`)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rules) != 2 {
		t.Fatalf("%d rules", len(g.Rules))
	}
	if g.RuleName(0) != "rule-0" || g.RuleName(7) != "rule-7" {
		t.Error("default rule names wrong")
	}
	g.Named("INT", "WS")
	if g.RuleName(0) != "INT" || g.RuleName(1) != "WS" {
		t.Error("Named failed")
	}
	if !strings.Contains(g.String(), "|") {
		t.Errorf("String() = %q", g.String())
	}
}

func TestParseGrammarErrors(t *testing.T) {
	if _, err := tokdfa.ParseGrammar(); !errors.Is(err, tokdfa.ErrEmptyGrammar) {
		t.Errorf("empty grammar: %v", err)
	}
	_, err := tokdfa.ParseGrammar(`a`, `b(`)
	if err == nil || !strings.Contains(err.Error(), "rule 1") {
		t.Errorf("bad rule error should name the rule: %v", err)
	}
	if _, err := tokdfa.Compile(nil, tokdfa.Options{}); err == nil {
		t.Error("Compile(nil) should fail")
	}
	if _, err := tokdfa.Compile(&tokdfa.Grammar{}, tokdfa.Options{}); err == nil {
		t.Error("Compile(empty) should fail")
	}
}

func TestCompileMachine(t *testing.T) {
	g := tokdfa.MustParseGrammar(`ab`, `a`)
	m := tokdfa.MustCompile(g, tokdfa.Options{})
	d := m.DFA
	if m.NFASize == 0 || d.NumStates() == 0 {
		t.Fatal("empty machine")
	}
	qa := d.Run([]byte("a"))
	if !d.IsFinal(qa) || d.Rule(qa) != 1 {
		t.Errorf("state after a: final=%v rule=%d", d.IsFinal(qa), d.Rule(qa))
	}
	qab := d.Run([]byte("ab"))
	if !d.IsFinal(qab) || d.Rule(qab) != 0 {
		t.Errorf("state after ab: final=%v rule=%d", d.IsFinal(qab), d.Rule(qab))
	}
	qx := d.Run([]byte("x"))
	if !m.IsDead(qx) {
		t.Error("state after x should be dead")
	}
	if m.Dead < 0 {
		t.Error("machine should have a canonical dead state")
	}
	// A grammar matching every nonempty prefix-closed language has no
	// dead state.
	all := tokdfa.MustCompile(tokdfa.MustParseGrammar(`.*`), tokdfa.Options{Minimize: true})
	if all.Dead != -1 {
		t.Errorf("universal grammar has dead state %d", all.Dead)
	}
}

func TestMinimizeOption(t *testing.T) {
	g := tokdfa.MustParseGrammar(`aa|aa`, `b`)
	plain := tokdfa.MustCompile(g, tokdfa.Options{})
	mini := tokdfa.MustCompile(g, tokdfa.Options{Minimize: true})
	if mini.DFA.NumStates() > plain.DFA.NumStates() {
		t.Errorf("minimized %d > plain %d", mini.DFA.NumStates(), plain.DFA.NumStates())
	}
	for _, w := range []string{"aa", "b", "a", "ab"} {
		if plain.DFA.Accepts([]byte(w)) != mini.DFA.Accepts([]byte(w)) {
			t.Errorf("disagree on %q", w)
		}
	}
}

// TestNFAStateLimit: adversarial bounded repetitions fail cleanly instead
// of exhausting memory.
func TestNFAStateLimit(t *testing.T) {
	g := tokdfa.MustParseGrammar(`a{100000000}`, `[ ]+`)
	_, err := tokdfa.Compile(g, tokdfa.Options{})
	if !errors.Is(err, automata.ErrNFATooLarge) {
		t.Fatalf("err = %v, want ErrNFATooLarge", err)
	}
	// A tight explicit limit triggers on a modest grammar.
	small := tokdfa.MustParseGrammar(`a{100}`)
	if _, err := tokdfa.Compile(small, tokdfa.Options{MaxNFAStates: 50}); !errors.Is(err, automata.ErrNFATooLarge) {
		t.Fatalf("tight limit: err = %v", err)
	}
	// The default limit does not get in the way of real grammars.
	if _, err := tokdfa.Compile(small, tokdfa.Options{}); err != nil {
		t.Fatalf("default limit rejected a{100}: %v", err)
	}
}

// TestCompileLiteralsServingRepresentation: every literal set, one over
// a few bytes as well as a byte-complete one, comes as the layout
// Sparsify packs from LiteralSet's class table, with no class table
// built. CoAcc and Dead are the class table's co-accessibility
// analysis.
func TestCompileLiteralsServingRepresentation(t *testing.T) {
	words := [][]byte{[]byte("in"), []byte("int"), []byte("into"), []byte("the"), []byte("then")}
	complete := append([][]byte(nil), words...)
	for b := 0; b < 256; b++ {
		complete = append(complete, []byte{byte(b)})
	}
	for _, c := range []struct {
		name string
		lits [][]byte
	}{
		{"few-bytes", words},
		{"byte-complete", complete},
	} {
		m, err := tokdfa.CompileLiterals(c.lits, tokdfa.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := automata.LiteralSet(c.lits)
		if m.Sparse == nil || m.DFA.Trans != nil {
			t.Fatalf("%s: want the sparse layout alone", c.name)
		}
		if !reflect.DeepEqual(m.Sparse, automata.Sparsify(d)) {
			t.Fatalf("%s: sparse layout differs from Sparsify(LiteralSet)", c.name)
		}
		d.Trans = nil
		if !reflect.DeepEqual(m.DFA, d) {
			t.Fatalf("%s: DFA differs from LiteralSet", c.name)
		}
		coacc := automata.LiteralSet(c.lits).CoAccessible()
		if !reflect.DeepEqual(m.CoAcc, coacc) || coacc[m.Dead] {
			t.Fatalf("%s: CoAcc/Dead differ from the class table's", c.name)
		}
		for q := 0; q < m.Dead; q++ {
			if !coacc[q] {
				t.Fatalf("%s: dead state %d, but %d is not co-accessible", c.name, m.Dead, q)
			}
		}
	}
}
