// Package automata implements the finite-automata substrate: Thompson NFAs
// with ε-transitions, byte-class compressed DFAs over the byte alphabet,
// the subset construction with rule priorities (run per class, not per
// byte), the direct trie construction for literal sets (Trie),
// reachability and co-accessibility analyses, partition-refinement
// minimization over the compressed rows, and row-displacement sparse
// tables. One packer lays out the sparse tables from either of two row
// sources, a class table (Sparsify) or a trie's child lists
// (Trie.Sparse, which never builds the states×classes table), and
// checks the layout against the rows on every (state, class) pair.
package automata

import (
	"errors"
	"sort"

	"streamtok/internal/charclass"
	"streamtok/internal/regex"
)

// NoRule marks a state that accepts no tokenization rule.
const NoRule = -1

// NFA is a nondeterministic finite automaton with ε-moves produced by the
// Thompson construction. State 0 is the start state. A state's Accept field
// holds the rule id it accepts (NoRule if it is not accepting). When several
// rules accept the same string, the least rule id wins (Definition 1).
type NFA struct {
	States []NFAState
	Start  int
}

// NFAState is one NFA state: at most one class-labeled transition plus any
// number of ε-transitions, which is all the Thompson construction needs.
type NFAState struct {
	Class  charclass.Class // label of the byte transition (empty if none)
	Next   int             // target of the byte transition (-1 if none)
	Eps    []int           // ε-transition targets
	Accept int             // rule id accepted at this state, or NoRule
}

// NumStates returns the number of NFA states ("NFA/Grammar Size" in
// Table 1).
func (n *NFA) NumStates() int { return len(n.States) }

// ErrNFATooLarge is returned when the Thompson construction exceeds its
// state budget (bounded repetition is expanded by duplication, so
// expressions like a{100000000} would otherwise exhaust memory).
var ErrNFATooLarge = errors.New("automata: NFA exceeds state limit")

// builder assembles an NFA fragment by fragment.
type builder struct {
	states []NFAState
	limit  int // 0 = unlimited
}

func (b *builder) newState() int {
	if b.limit > 0 && len(b.states) >= b.limit {
		panic(ErrNFATooLarge)
	}
	b.states = append(b.states, NFAState{Next: -1, Accept: NoRule})
	return len(b.states) - 1
}

func (b *builder) eps(from, to int) {
	b.states[from].Eps = append(b.states[from].Eps, to)
}

// frag is a Thompson fragment with one entry and one exit state.
type frag struct {
	in, out int
}

func (b *builder) compile(n regex.Node) frag {
	switch t := n.(type) {
	case regex.Epsilon:
		s := b.newState()
		e := b.newState()
		b.eps(s, e)
		return frag{s, e}
	case regex.Char:
		s := b.newState()
		e := b.newState()
		b.states[s].Class = t.Class
		b.states[s].Next = e
		return frag{s, e}
	case regex.Concat:
		if len(t.Factors) == 0 {
			return b.compile(regex.Epsilon{})
		}
		first := b.compile(t.Factors[0])
		cur := first
		for _, f := range t.Factors[1:] {
			next := b.compile(f)
			b.eps(cur.out, next.in)
			cur = next
		}
		return frag{first.in, cur.out}
	case regex.Alt:
		s := b.newState()
		e := b.newState()
		for _, alt := range t.Alternatives {
			f := b.compile(alt)
			b.eps(s, f.in)
			b.eps(f.out, e)
		}
		return frag{s, e}
	case regex.Star:
		s := b.newState()
		e := b.newState()
		f := b.compile(t.Inner)
		b.eps(s, f.in)
		b.eps(s, e)
		b.eps(f.out, f.in)
		b.eps(f.out, e)
		return frag{s, e}
	case regex.Repeat:
		return b.compileRepeat(t)
	default:
		panic("automata: unknown regex node")
	}
}

// compileRepeat expands r{m,n} = r^m (r?)^{n-m} and r{m,} = r^m r*,
// duplicating the operand as the paper does ("bounded repetition is treated
// as an abbreviation", RQ3).
func (b *builder) compileRepeat(r regex.Repeat) frag {
	s := b.newState()
	cur := s
	for i := 0; i < r.Min; i++ {
		f := b.compile(r.Inner)
		b.eps(cur, f.in)
		cur = f.out
	}
	if r.Max < 0 {
		star := b.compile(regex.Star{Inner: r.Inner})
		b.eps(cur, star.in)
		return frag{s, star.out}
	}
	// Optional tail: (r?)^{max-min}. Each optional copy can be skipped
	// straight to the shared exit.
	e := b.newState()
	for i := 0; i < r.Max-r.Min; i++ {
		b.eps(cur, e)
		f := b.compile(r.Inner)
		b.eps(cur, f.in)
		cur = f.out
	}
	b.eps(cur, e)
	return frag{s, e}
}

// BuildNFA builds the κ-ary union NFA of a tokenization grammar
// r̄ = [r_0, ..., r_{κ-1}]. The exit of rule β's fragment accepts rule β.
func BuildNFA(rules []regex.Node) *NFA {
	n, err := BuildNFALimited(rules, 0)
	if err != nil {
		panic(err) // unreachable: limit 0 never fails
	}
	return n
}

// BuildNFALimited is BuildNFA with a state budget (0 = unlimited): it
// returns ErrNFATooLarge instead of exhausting memory on adversarial
// bounded repetitions.
func BuildNFALimited(rules []regex.Node, limit int) (nfa *NFA, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == ErrNFATooLarge {
				nfa, err = nil, ErrNFATooLarge
				return
			}
			panic(r)
		}
	}()
	b := &builder{limit: limit}
	start := b.newState()
	for id, r := range rules {
		f := b.compile(r)
		b.eps(start, f.in)
		if acc := b.states[f.out].Accept; acc == NoRule || id < acc {
			b.states[f.out].Accept = id
		}
	}
	return &NFA{States: b.states, Start: start}, nil
}

// epsClosure expands set (a sorted slice of state ids) to its ε-closure,
// returned sorted.
func (n *NFA) epsClosure(set []int) []int {
	seen := make(map[int]bool, len(set)*2)
	stack := append([]int(nil), set...)
	for _, s := range set {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.States[s].Eps {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Match reports whether the NFA accepts w, and if so the least rule id
// among accepting states. It is a reference implementation used in tests.
func (n *NFA) Match(w []byte) (rule int, ok bool) {
	cur := n.epsClosure([]int{n.Start})
	for _, b := range w {
		var next []int
		seen := make(map[int]bool)
		for _, s := range cur {
			st := &n.States[s]
			if st.Next >= 0 && st.Class.Contains(b) && !seen[st.Next] {
				seen[st.Next] = true
				next = append(next, st.Next)
			}
		}
		cur = n.epsClosure(next)
		if len(cur) == 0 {
			return NoRule, false
		}
	}
	rule = NoRule
	for _, s := range cur {
		if a := n.States[s].Accept; a != NoRule && (rule == NoRule || a < rule) {
			rule = a
		}
	}
	return rule, rule != NoRule
}
