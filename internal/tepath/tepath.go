// Package tepath implements the token-extension machinery of §5.2: the
// token-extension NFA TeNFA(A) built from the token-extension paths of a
// tokenization DFA A (compactly, without enumerating paths), the
// token-extension DFA TeDFA(A) obtained by the modified ("restarting")
// powerset construction, and the token-maximality table T[q][S].
//
// A token-extension path is q →a1→ q1 →a2→ ... →ak→ qk with q and qk final
// and q1..q(k-1) non-final, k ≤ K = TkDist(r̄). TeNFA(A) recognizes
// { label(π)·Σ^(K-k) : π a token-extension path of length k }, all strings
// of length exactly K, and labels each accepting run with fst(π).
//
// A TeNFA state is (q, p, d) — a path from final q currently at state p
// after d symbols, all intermediates non-final — or (q, done, d) — a path
// from q completed at some length ≤ d and padded with Σ. States carry the
// depth d because the restarting powerset construction mixes path prefixes
// of different ages in one powerstate; a state is accepting iff it is
// (q, done, K).
package tepath

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"streamtok/internal/tokdfa"
)

// Limits bounds the construction so pathological grammars fail fast
// instead of exhausting memory.
type Limits struct {
	// MaxNFAStates bounds the TeNFA size (default 1<<20).
	MaxNFAStates int
	// MaxDFAStates bounds Build's expansion of the TeDFA (default
	// 1<<18). The streaming tokenizer uses it as its eager cap instead
	// (see core.NewWithK); Grow, which serves lazy streams, is never
	// capped.
	MaxDFAStates int
}

func (l Limits) withDefaults() Limits {
	if l.MaxNFAStates == 0 {
		l.MaxNFAStates = 1 << 20
	}
	if l.MaxDFAStates == 0 {
		l.MaxDFAStates = 1 << 18
	}
	return l
}

// ErrTooLarge is returned when the construction exceeds its limits.
var ErrTooLarge = errors.New("tepath: token-extension automaton exceeds size limits")

// Table is the token-extension DFA B = TeDFA(A) plus the
// token-maximality table T, in one flat class-column layout. Its
// powerstates are interned by the restarting powerset construction
// (δ_B(S, b) = {succ(s, b) : s ∈ S} ∪ I, Example 19) one transition at
// a time: a transition entry of -1 has not been computed yet.
//
// Build expands a table breadth-first to closure; the result is
// complete, immutable and safe for concurrent use. On grammars whose
// TeDFA is exponential in K (the paper's Fig. 8 family r_k needs
// 2^(k+1)-2 states) the closure is not affordable, but a stream visits
// only a tiny fraction of it (on the all-a worst-case input, k+2
// powerstates). Such a table is kept unexpanded, as a template, and
// each stream grows its own Clone on demand with Grow; the grown
// entries then cost the same array loads per symbol as the eager table.
type Table struct {
	// K is the maximum token neighbor distance the table was built for.
	K int
	// Start is the initial TeDFA state (the powerstate I).
	Start int
	// trans is the flattened TeDFA transition table, one column per byte
	// class of the tokenization DFA: trans[s*nc+int(classOf[b])], or -1
	// when not yet computed. The TeNFA's successors are a pure function
	// of δ_A, so A's byte-class partition is exact for B as well and the
	// two machines share one class map.
	trans []int32
	// classOf is a copy of the tokenization DFA's byte-class map.
	classOf [256]uint8
	// nc is the class count (compressed row width).
	nc int
	// extendable[S] is a bitset over A's states: bit q is set iff the
	// powerstate S contains an accepting TeNFA state labeled q, i.e.
	// the token ending at A-state q has an extension within the last K
	// symbols B has consumed. T[q][S] = q final ∧ ¬extendable[S][q].
	extendable [][]uint64
	// emitOK[S] fuses the finality test into the table: bit q is set
	// iff q is final and not extendable in S, so the hot loop needs one
	// bitset probe per byte.
	emitOK [][]uint64
	words  int // words per bitset
	// complete is set once every transition has been computed.
	complete bool

	// The powerset construction's state, dropped once the table is
	// complete: the shared, immutable TeNFA, each powerstate's sorted
	// NFA-state set and its interning index, and scratch Grow reuses.
	nfa    *teNFA
	sets   [][]int32
	ids    map[string]int32
	next   []int32
	seen   []bool
	keyBuf []byte
}

// NumStates returns the number of powerstates interned so far (the
// TeDFA size once the table is complete).
func (t *Table) NumStates() int { return len(t.emitOK) }

// Complete reports whether every transition has been computed, i.e.
// the table was expanded to closure.
func (t *Table) Complete() bool { return t.complete }

// Bytes returns the memory every resident array occupies: compressed
// transition words, both maximality bitsets (extendable and the fused
// emitOK mirror), and the table's copy of the byte-class map (for the RQ6
// and certificate accounting).
func (t *Table) Bytes() int {
	return len(t.trans)*4 + 2*len(t.extendable)*t.words*8 + 256
}

// NumClasses returns the byte-class count shared with the tokenization
// DFA.
func (t *Table) NumClasses() int { return t.nc }

// Dump exposes the raw TeDFA tables for code generators: the flattened
// class-compressed transition table (numClasses columns per state, indexed
// by the tokenization DFA's byte classes) and, per state, the fused
// emit-OK bitset over the tokenization DFA's states (words uint64s per
// state).
func (t *Table) Dump() (trans []int32, numClasses int, emitOK [][]uint64, words int) {
	return t.trans, t.nc, t.emitOK, t.words
}

// Trans returns the transition table (see Dump), with -1 marking an
// entry not yet computed. Grow may reallocate it, so a caller that
// caches the slice must reload it after every Grow.
func (t *Table) Trans() []int32 { return t.trans }

// Step advances the TeDFA, δ_B(S, b), computing the transition first if
// it is missing.
func (t *Table) Step(s int, b byte) int {
	c := int(t.classOf[b])
	if n := t.trans[s*t.nc+c]; n >= 0 {
		return int(n)
	}
	return int(t.Grow(s, c))
}

// Maximal implements the token-maximality table lookup T[q][S]: it reports
// whether a token that left the tokenization DFA in final state q is
// maximal given that the token-extension DFA, K symbols ahead, is in
// powerstate S. The caller must ensure q is final.
func (t *Table) Maximal(q, s int) bool {
	return t.extendable[s][q>>6]&(1<<(q&63)) == 0
}

// MaximalFinal is Maximal with the finality test fused in: it reports
// T[q][S] for arbitrary q, false when q is not final.
func (t *Table) MaximalFinal(q, s int) bool {
	return t.emitOK[s][q>>6]&(1<<(q&63)) != 0
}

// Grow computes the missing transition of powerstate s on class c,
// δ_B(S, c) = {succ(s, c) : s ∈ S} ∪ I, interning the successor when it
// is new, and returns it. It is not capped and not safe for concurrent
// use: a complete table never needs it, and a template is grown only
// through per-stream clones.
func (t *Table) Grow(s, c int) int32 {
	nfa := t.nfa
	if t.seen == nil {
		t.seen = make([]bool, len(nfa.acceptLabel))
	}
	next := t.next[:0]
	for _, st := range t.sets[s] {
		if n := nfa.succ[int(st)*t.nc+c]; n >= 0 && !t.seen[n] {
			t.seen[n] = true
			next = append(next, n)
		}
	}
	for _, st := range nfa.initial {
		if !t.seen[st] {
			t.seen[st] = true
			next = append(next, st)
		}
	}
	for _, st := range next {
		t.seen[st] = false
	}
	slices.Sort(next)
	t.next = next
	id := t.intern(next)
	t.trans[s*t.nc+c] = id
	return id
}

// intern returns the id of the powerstate set, appending it — with a row
// of uncomputed transitions and its maximality bitsets — when it is new.
// set may be scratch: it is copied before it is kept.
func (t *Table) intern(set []int32) int32 {
	key := t.keyBuf[:0]
	for _, s := range set {
		key = binary.LittleEndian.AppendUint32(key, uint32(s))
	}
	t.keyBuf = key
	if id, ok := t.ids[string(key)]; ok {
		return id
	}
	id := int32(len(t.sets))
	t.ids[string(key)] = id
	t.sets = append(t.sets, slices.Clone(set))
	for c := 0; c < t.nc; c++ {
		t.trans = append(t.trans, -1)
	}
	bits := make([]uint64, t.words)
	for _, s := range set {
		if lbl := t.nfa.acceptLabel[s]; lbl >= 0 {
			bits[lbl>>6] |= 1 << (lbl & 63)
		}
	}
	t.extendable = append(t.extendable, bits)
	ok := make([]uint64, t.words)
	for w := range ok {
		ok[w] = t.nfa.finals[w] &^ bits[w]
	}
	t.emitOK = append(t.emitOK, ok)
	return id
}

// Expand computes every missing transition breadth-first, in state then
// class order, until the table is closed under δ_B. It fails with
// ErrTooLarge as soon as the table would hold more than maxStates
// powerstates, leaving the table partially expanded. A complete table
// never grows again, so it drops the construction state.
func (t *Table) Expand(maxStates int) error {
	for s := 0; s < t.NumStates(); s++ {
		for c := 0; c < t.nc; c++ {
			if t.trans[s*t.nc+c] >= 0 {
				continue
			}
			t.Grow(s, c)
			if t.NumStates() > maxStates {
				return ErrTooLarge
			}
		}
	}
	t.complete = true
	t.nfa, t.sets, t.ids, t.next, t.seen, t.keyBuf = nil, nil, nil, nil, nil, nil
	return nil
}

// Clone returns a copy of t that grows independently of it. The TeNFA
// and every interned powerstate's set and bitsets are immutable and
// shared; the row table and the interning index are copied.
func (t *Table) Clone() *Table {
	c := *t
	c.trans = slices.Clone(t.trans)
	c.extendable = slices.Clone(t.extendable)
	c.emitOK = slices.Clone(t.emitOK)
	c.sets = slices.Clone(t.sets)
	c.ids = maps.Clone(t.ids)
	c.next, c.seen, c.keyBuf = nil, nil, nil
	return &c
}

// teNFA is the intermediate token-extension NFA. Every state has at most
// one successor per byte (nondeterminism enters only through the restart
// union with I), so it is stored as a flat successor table, one column per
// byte class of the tokenization DFA (the successor is a pure function of
// δ_A, so bytes A cannot distinguish are interchangeable here too).
type teNFA struct {
	// succ[s*nc+c] is the successor of state s on any byte of class c,
	// or -1.
	succ []int32
	// nc is the byte-class count of the tokenization DFA.
	nc int
	// acceptLabel[s] is Λ(s) = fst(π) for accepting states (depth K,
	// done), or -1.
	acceptLabel []int32
	// initial states (q, q, 0) for each final q reachable by Σ⁺, in
	// increasing order: the restart set I.
	initial []int32
	// finals is the bitset of A's final states.
	finals []uint64
}

// New prepares the token-extension DFA of a machine whose grammar has
// TkDist = k ≥ 1: it builds the TeNFA and interns the start powerstate,
// leaving every transition uncomputed (see Expand and Grow).
func New(m *tokdfa.Machine, k int, limits Limits) (*Table, error) {
	if k < 1 {
		return nil, fmt.Errorf("tepath: token extension requires K >= 1, got %d", k)
	}
	nfa, err := buildTeNFA(m, k, limits.withDefaults())
	if err != nil {
		return nil, err
	}
	t := &Table{
		K:       k,
		classOf: m.DFA.ClassOf,
		nc:      nfa.nc,
		words:   len(nfa.finals),
		nfa:     nfa,
		ids:     map[string]int32{},
	}
	t.Start = int(t.intern(nfa.initial))
	return t, nil
}

// Build constructs the complete token-extension DFA and maximality
// table for a machine whose grammar has TkDist = k (as computed by the
// static analysis), failing with ErrTooLarge past limits.MaxDFAStates
// powerstates. k must be ≥ 1; grammars with k == 0 need no lookahead at
// all and are handled by the tokenizers directly.
func Build(m *tokdfa.Machine, k int, limits Limits) (*Table, error) {
	t, err := New(m, k, limits)
	if err != nil {
		return nil, err
	}
	if err := t.Expand(limits.withDefaults().MaxDFAStates); err != nil {
		return nil, err
	}
	return t, nil
}

// buildTeNFA lazily enumerates the reachable (q, p, d) and (q, done, d)
// states.
func buildTeNFA(m *tokdfa.Machine, k int, limits Limits) (*teNFA, error) {
	d := m.DFA
	reach := d.ReachableNonEmpty()

	type key struct {
		q   int32 // label: the final state the path starts from
		p   int32 // current DFA state, or -1 for done
		dep int32 // symbols consumed
	}
	ids := map[key]int32{}
	var keys []key
	intern := func(kk key) (int32, error) {
		if id, ok := ids[kk]; ok {
			return id, nil
		}
		if len(keys) >= limits.MaxNFAStates {
			return 0, ErrTooLarge
		}
		id := int32(len(keys))
		ids[kk] = id
		keys = append(keys, kk)
		return id, nil
	}

	var initial []int32
	for q := 0; q < d.NumStates(); q++ {
		if reach[q] && d.IsFinal(q) {
			id, err := intern(key{int32(q), int32(q), 0})
			if err != nil {
				return nil, err
			}
			initial = append(initial, id)
		}
	}

	// BFS over reachable TeNFA states, filling the successor table one
	// class column at a time.
	nc := d.NumClasses()
	var succ []int32
	ensure := func(n int) {
		for len(succ) < n*nc {
			succ = append(succ, -1)
		}
	}
	for s := 0; s < len(keys); s++ {
		ensure(s + 1)
		kk := keys[s]
		if int(kk.dep) == k {
			continue // no successors at full depth
		}
		if kk.p < 0 {
			// done: pad with any byte.
			t, err := intern(key{kk.q, -1, kk.dep + 1})
			if err != nil {
				return nil, err
			}
			for c := 0; c < nc; c++ {
				succ[s*nc+c] = t
			}
			continue
		}
		for c := 0; c < nc; c++ {
			nxt := d.StepClass(int(kk.p), c)
			var tk key
			switch {
			case d.IsFinal(nxt):
				tk = key{kk.q, -1, kk.dep + 1} // path completes here
			case m.IsDead(nxt):
				continue // no extension can pass a dead state
			default:
				tk = key{kk.q, int32(nxt), kk.dep + 1}
			}
			t, err := intern(tk)
			if err != nil {
				return nil, err
			}
			succ[s*nc+c] = t
		}
	}
	ensure(len(keys))

	accept := make([]int32, len(keys))
	for s, kk := range keys {
		accept[s] = -1
		if kk.p < 0 && int(kk.dep) == k {
			accept[s] = kk.q
		}
	}
	finals := make([]uint64, (d.NumStates()+63)/64)
	for q := 0; q < d.NumStates(); q++ {
		if d.IsFinal(q) {
			finals[q>>6] |= 1 << (q & 63)
		}
	}
	return &teNFA{succ: succ, nc: nc, acceptLabel: accept, initial: initial, finals: finals}, nil
}
