// Package tokdfa builds the tokenization DFA of Definition 3 from a
// tokenization grammar (a nonempty list of regular-expression rules).
package tokdfa

import (
	"errors"
	"fmt"

	"streamtok/internal/automata"
	"streamtok/internal/regex"
)

// Rule is one tokenization rule: a regular expression with an optional
// human-readable name (e.g. "INT", "WS").
type Rule struct {
	Name string
	Expr regex.Node
}

// Grammar is a tokenization grammar r̄ = [r_0, ..., r_{κ-1}]. Rule order is
// significant: ties between equally long tokens go to the least index.
type Grammar struct {
	Rules []Rule
}

// ErrEmptyGrammar is returned when a grammar has no rules.
var ErrEmptyGrammar = errors.New("tokdfa: grammar must have at least one rule")

// ParseGrammar parses each source string into a rule. Rule β's name
// defaults to "rule-β".
func ParseGrammar(sources ...string) (*Grammar, error) {
	if len(sources) == 0 {
		return nil, ErrEmptyGrammar
	}
	g := &Grammar{Rules: make([]Rule, len(sources))}
	for i, src := range sources {
		n, err := regex.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		g.Rules[i] = Rule{Name: fmt.Sprintf("rule-%d", i), Expr: n}
	}
	return g, nil
}

// MustParseGrammar is ParseGrammar that panics on error.
func MustParseGrammar(sources ...string) *Grammar {
	g, err := ParseGrammar(sources...)
	if err != nil {
		panic(err)
	}
	return g
}

// Named sets rule names in order; extra names are ignored.
func (g *Grammar) Named(names ...string) *Grammar {
	for i := range g.Rules {
		if i < len(names) {
			g.Rules[i] = Rule{Name: names[i], Expr: g.Rules[i].Expr}
		}
	}
	return g
}

// RuleSource returns rule β's regular expression re-rendered as
// parseable source (the form machinefile persists and the serving
// registry hashes).
func (g *Grammar) RuleSource(beta int) string { return regex.String(g.Rules[beta].Expr) }

// RuleName returns the name of rule β, or "rule-β" when out of range.
func (g *Grammar) RuleName(beta int) string {
	if beta >= 0 && beta < len(g.Rules) && g.Rules[beta].Name != "" {
		return g.Rules[beta].Name
	}
	return fmt.Sprintf("rule-%d", beta)
}

// String renders the grammar as the single regex r_0 | r_1 | ... used by
// the paper's examples.
func (g *Grammar) String() string {
	s := ""
	for i, r := range g.Rules {
		if i > 0 {
			s += " | "
		}
		s += regex.String(r.Expr)
	}
	return s
}

// Machine is a compiled tokenization DFA together with the analyses needed
// by the tokenizers: co-accessibility (dead-state detection) and the
// explicit dead state, if any.
type Machine struct {
	// Grammar is the compiled grammar; nil for a literal-set machine
	// (CompileLiterals).
	Grammar *Grammar
	DFA     *automata.DFA
	// Sparse is the serving transition representation of a literal-set
	// machine (CompileLiterals): the row-displacement layout built from
	// the token trie. DFA then keeps the class map, accept labels and
	// state count but no class table (DFA.Trans is nil), and transitions
	// step through Sparse. Scanner callers (the BPE piece scan) honor
	// this; the streaming engines require a class table and refuse
	// sparse-only machines. Nil for grammar machines (Compile).
	Sparse *automata.SparseDFA
	// NFASize is the number of states of the Thompson NFA before
	// determinization (Table 1's "NFA/Grammar Size").
	NFASize int
	// CoAcc[q] reports whether q can reach a final state.
	CoAcc []bool
	// Dead is the id of a canonical dead state, or -1 if the DFA has no
	// dead state (every state is co-accessible).
	Dead int
}

// Options configures Compile and CompileLiterals.
type Options struct {
	// Minimize applies DFA minimization after determinization. Table 1
	// reports minimized DFA sizes.
	Minimize bool
	// MaxNFAStates bounds the Thompson construction (0 = the default,
	// 1<<22); bounded repetition is expanded by duplication, so an
	// adversarial r{100000000} would otherwise exhaust memory.
	MaxNFAStates int
}

// nfaLimit returns the Thompson state budget MaxNFAStates selects.
func (o Options) nfaLimit() int {
	if o.MaxNFAStates == 0 {
		return 1 << 22
	}
	return o.MaxNFAStates
}

// Compile builds the tokenization DFA for g.
func Compile(g *Grammar, opts Options) (*Machine, error) {
	if g == nil || len(g.Rules) == 0 {
		return nil, ErrEmptyGrammar
	}
	exprs := make([]regex.Node, len(g.Rules))
	for i, r := range g.Rules {
		exprs[i] = r.Expr
	}
	nfa, err := automata.BuildNFALimited(exprs, opts.nfaLimit())
	if err != nil {
		return nil, err
	}
	dfa := automata.Determinize(nfa)
	if opts.Minimize {
		dfa = automata.Minimize(dfa)
	}
	return newMachine(g, dfa, nfa.NumStates()), nil
}

// CompileLiterals builds the minimized tokenization DFA of the literal
// grammar whose rule β matches exactly lits[β] — the machine Compile
// returns for rules regex.Lit(lits[β]) with Minimize set — from the
// literal trie (automata.Trie) instead of through a Thompson NFA,
// determinization and minimization. This is how BPE vocabularies
// compile. opts.Minimize does not apply: a trie is already minimal. The
// set is refused exactly when Compile would refuse it: NFASize is the
// Thompson size Compile reports, computed before anything is allocated
// and checked against the same state budget.
//
// The machine comes in its serving representation, the sparse layout
// built straight from the trie's child lists (automata.Trie.Sparse);
// the states×classes class table is never built, so memory is
// O(Σ|lits|), and so is the time to build the trie and its rows.
// Packing the rows is superlinear (automata.Trie.Sparse): 1.4 ms for
// the trained 8k vocabulary, about 0.1 s at 160k trie states. A literal
// set over few bytes would have a smaller class table, but
// vocabularies, the only literal sets compiled, carry all 256 single
// bytes (C = 256), where the sparse layout is the smaller by far. CoAcc and Dead come from the trie too:
// every trie state is co-accessible, and the dead state is the only one
// that is not.
//
// The machine carries no Grammar (a vocabulary needs no regex rules;
// rule id = literal index), so it is for scanners, not for
// machinefile or the streaming engines.
func CompileLiterals(lits [][]byte, opts Options) (*Machine, error) {
	if len(lits) == 0 {
		return nil, ErrEmptyGrammar
	}
	limit := opts.nfaLimit()
	// Thompson: one start state plus two per byte, and two for an
	// empty literal (its ε fragment).
	size := 1
	for _, lit := range lits {
		size += 2 * max(len(lit), 1)
		if limit > 0 && size > limit {
			return nil, fmt.Errorf("%w: literal set of %d strings needs over %d states", automata.ErrNFATooLarge, len(lits), limit)
		}
	}
	t := automata.NewTrie(lits)
	m := &Machine{NFASize: size, CoAcc: make([]bool, t.NumStates()), Dead: t.Dead()}
	for q := range m.CoAcc {
		m.CoAcc[q] = q != m.Dead
	}
	m.Sparse = t.Sparse()
	m.DFA = &automata.DFA{ClassOf: m.Sparse.ClassOf, Reps: m.Sparse.Reps, Accept: m.Sparse.Accept, Start: m.Sparse.Start}
	return m, nil
}

// newMachine attaches the dead-state analyses to a compiled DFA.
func newMachine(g *Grammar, dfa *automata.DFA, nfaSize int) *Machine {
	coacc := dfa.CoAccessible()
	dead := -1
	for q := 0; q < dfa.NumStates(); q++ {
		if !coacc[q] {
			dead = q
			break
		}
	}
	return &Machine{
		Grammar: g,
		DFA:     dfa,
		NFASize: nfaSize,
		CoAcc:   coacc,
		Dead:    dead,
	}
}

// MustCompile is Compile that panics on error.
func MustCompile(g *Grammar, opts Options) *Machine {
	m, err := Compile(g, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// IsDead reports whether q is a reject/failure state.
func (m *Machine) IsDead(q int) bool { return !m.CoAcc[q] }

// TableBytes returns the resident bytes of the serving transition
// representation: the sparse layout of a literal-set machine, the class
// table of a grammar machine. Budgets and certificates account this
// figure.
func (m *Machine) TableBytes() int {
	if m.Sparse != nil {
		return m.Sparse.TableBytes()
	}
	return m.DFA.TableBytes()
}

// StepByte returns δ(q, b) through whichever transition representation
// the machine serves from. Callers that step both kinds of machine
// (tests, the per-layer step benchmark) go through this; hot loops
// inline the representation-specific stepping.
func (m *Machine) StepByte(q int, b byte) int {
	if m.Sparse != nil {
		return m.Sparse.Step(q, b)
	}
	return m.DFA.Step(q, b)
}
