package automata

import (
	"fmt"
	"sort"
)

// SparseDFA is a row-displacement compressed transition table — the
// flex next/check scheme — for DFAs whose byte-class partition buys
// nothing. Byte-complete vocabularies (BPE trie DFAs) are the motivating
// case: every byte is its own column class (C = 256, compression ratio
// 1.000), so the class-compressed table is as large as the dense one,
// yet almost every row is one or two real transitions plus a flood of
// edges to the dead state. Row displacement stores exactly the real
// transitions:
//
//   - each state q has a Default[q] target (its most common one — the
//     dead state, for trie rows) and a displacement Base[q] into the
//     shared Next/Check arrays;
//   - the non-default transitions of q live at Next[Base[q]+c] for each
//     class c they occupy, with Check[Base[q]+c] == q claiming the slot;
//     a slot claimed by another state (or unclaimed) means "take the
//     default";
//   - rows with too many non-default entries to be worth displacing are
//     stored densely out of line: Base[q] = -(r+1) points at row r of
//     Dense, read as Dense[r*C+c]. (The start state of a vocab DFA is
//     the canonical case: 256 distinct byte edges.)
//
// Lookup is branch-plus-two-loads — one more compare than the class
// table — in exchange for tables that scale with real transitions
// (~edges) instead of states×classes. ClassOf/Reps/Accept are shared
// with the source DFA, so IsFinal/Rule and the class map behave
// identically; only the transition representation changes.
type SparseDFA struct {
	// Base[q] is state q's displacement into Next/Check when >= 0, or
	// the dense-row escape -(r+1) addressing Dense[r*C : (r+1)*C].
	Base []int32
	// Next[Base[q]+c] is δ(q, c) when Check[Base[q]+c] == q.
	Next []int32
	// Check[i] names the state that owns slot i, or -1 for free slots.
	Check []int32
	// Default[q] is δ(q, c) for every class c whose slot q does not own.
	Default []int32
	// Dense holds the out-of-line dense rows, C entries each.
	Dense []int32
	// ClassOf, Reps, Accept, Start mirror DFA (shared slices).
	ClassOf [256]uint8
	Reps    []byte
	Accept  []int32
	Start   int
}

// NumStates returns the number of states.
func (s *SparseDFA) NumStates() int { return len(s.Accept) }

// NumClasses returns the byte-class count C.
func (s *SparseDFA) NumClasses() int { return len(s.Reps) }

// StepClass returns δ(q, c) for class index c.
func (s *SparseDFA) StepClass(q, c int) int {
	b := s.Base[q]
	if b < 0 {
		return int(s.Dense[int(-b-1)*len(s.Reps)+c])
	}
	i := int(b) + c
	if s.Check[i] == int32(q) {
		return int(s.Next[i])
	}
	return int(s.Default[q])
}

// Step returns δ(q, b).
func (s *SparseDFA) Step(q int, b byte) int { return s.StepClass(q, int(s.ClassOf[b])) }

// IsFinal reports whether q is a final state.
func (s *SparseDFA) IsFinal(q int) bool { return s.Accept[q] != NoRule }

// Rule returns Λ(q), or NoRule.
func (s *SparseDFA) Rule(q int) int { return int(s.Accept[q]) }

// TableBytes returns the resident size of the sparse layout: the five
// int32 arrays, the accept labels, the class map, and the class
// representatives — the figure the fused-table budget and resource
// certificates account.
func (s *SparseDFA) TableBytes() int {
	return (len(s.Base)+len(s.Next)+len(s.Check)+len(s.Default)+len(s.Dense)+len(s.Accept))*4 +
		256 + len(s.Reps)
}

// denseRowThreshold: a displaced entry costs 8 B (next + check) and may
// leave holes; a dense row costs 4C B flat. Rows past half-full are
// stored densely — cheaper, and they would shred the displacement
// packing anyway.
func denseRowThreshold(numClasses int) int { return numClasses / 2 }

// Sparsify builds the row-displacement layout for d and verifies it
// transition-for-transition against the class table before returning.
// The construction is deterministic: rows are packed first-fit in
// decreasing entry-count order (ties by state id), so the same DFA
// always serializes to the same bytes.
func Sparsify(d *DFA) *SparseDFA {
	m := d.NumStates()
	nc := len(d.Reps)
	s := &SparseDFA{
		Base:    make([]int32, m),
		Default: make([]int32, m),
		ClassOf: d.ClassOf,
		Reps:    d.Reps,
		Accept:  d.Accept,
		Start:   d.Start,
	}

	// Per row: the majority target becomes the default, the rest become
	// displaced entries (or the row goes dense past the threshold).
	type row struct {
		q       int32
		classes []int32 // class indices with non-default targets
	}
	var rows []row
	counts := make([]int32, m) // per-row target tallies, zeroed after each row
	threshold := denseRowThreshold(nc)
	for q := 0; q < m; q++ {
		tr := d.Trans[q*nc : (q+1)*nc]
		var def int32
		best := int32(-1)
		for _, t := range tr {
			counts[t]++
			if c := counts[t]; c > best || (c == best && t < def) {
				best, def = c, t
			}
		}
		for _, t := range tr {
			counts[t] = 0
		}
		s.Default[q] = def
		var classes []int32
		for c, t := range tr {
			if t != def {
				classes = append(classes, int32(c))
			}
		}
		if len(classes) > threshold {
			r := int32(len(s.Dense) / nc)
			s.Dense = append(s.Dense, tr...)
			s.Base[q] = -(r + 1)
			continue
		}
		rows = append(rows, row{q: int32(q), classes: classes})
	}

	sort.Slice(rows, func(i, j int) bool {
		if len(rows[i].classes) != len(rows[j].classes) {
			return len(rows[i].classes) > len(rows[j].classes)
		}
		return rows[i].q < rows[j].q
	})

	// First-fit packing into Next/Check: each row takes the least base
	// at or past the first free slot whose slots are all free. Arrays grow
	// as bases push past the current end and are finally padded so
	// Base[q]+c is in bounds for every class.
	//
	// free is a union-find "next free slot" index over the slots: free[i]
	// == i marks slot i unclaimed, a claimed slot links to its successor,
	// and free[len(Check)] is the always-free end. When slot base+c is
	// claimed, every base up to nextFree(base+c)-c collides on class c,
	// so the search jumps there instead of trying each base in turn.
	free := []int32{0}
	nextFree := func(i int) int {
		for i < len(free) && int(free[i]) != i {
			free[i] = free[free[i]] // path halving
			i = int(free[i])
		}
		return i
	}
	grow := func(upto int) {
		for len(s.Check) <= upto {
			s.Next = append(s.Next, 0)
			s.Check = append(s.Check, -1)
			free = append(free, int32(len(free)))
		}
	}
	firstFree := 0
	for _, r := range rows {
		if len(r.classes) == 0 {
			s.Base[r.q] = 0 // all-default row; claims no slots
			continue
		}
		base := firstFree
	search:
		for {
			for _, c := range r.classes {
				i := base + int(c)
				if f := nextFree(i); f != i {
					base = f - int(c)
					continue search
				}
			}
			break
		}
		grow(base + int(r.classes[len(r.classes)-1]))
		for _, c := range r.classes {
			i := base + int(c)
			s.Check[i] = r.q
			s.Next[i] = d.Trans[int(r.q)*nc+int(c)]
			free[i] = int32(i + 1)
		}
		s.Base[r.q] = int32(base)
		firstFree = nextFree(firstFree)
	}
	grow(maxBase(s.Base) + nc - 1)

	// Build-time ground truth: the sparse layout must agree with the
	// class table on every (state, class) before the class table may be
	// dropped.
	for q := 0; q < m; q++ {
		for c := 0; c < nc; c++ {
			if got, want := s.StepClass(q, c), int(d.Trans[q*nc+c]); got != want {
				panic(fmt.Sprintf("automata: sparse table disagrees at (%d, %d): %d != %d", q, c, got, want))
			}
		}
	}
	return s
}

func maxBase(base []int32) int {
	mb := 0
	for _, b := range base {
		if int(b) > mb {
			mb = int(b)
		}
	}
	return mb
}

// Validate structurally checks a sparse table (decoded from an
// untrusted machinefile): every base in range, every target a real
// state, every check entry a real state or free. It does not prove
// equivalence to any class table — that check runs at build time, when
// the class table still exists.
func (s *SparseDFA) Validate() error {
	m := len(s.Accept)
	nc := len(s.Reps)
	if nc == 0 {
		return fmt.Errorf("automata: sparse table has no byte classes")
	}
	if len(s.Base) != m || len(s.Default) != m {
		return fmt.Errorf("automata: sparse base/default length %d/%d != %d states", len(s.Base), len(s.Default), m)
	}
	if len(s.Next) != len(s.Check) {
		return fmt.Errorf("automata: sparse next/check length mismatch %d != %d", len(s.Next), len(s.Check))
	}
	if len(s.Dense)%nc != 0 {
		return fmt.Errorf("automata: dense spill length %d not a multiple of %d classes", len(s.Dense), nc)
	}
	denseRows := len(s.Dense) / nc
	for q, b := range s.Base {
		if b < 0 {
			if r := int(-b - 1); r >= denseRows {
				return fmt.Errorf("automata: state %d dense row %d of %d", q, r, denseRows)
			}
		} else if int(b)+nc-1 >= len(s.Check) {
			return fmt.Errorf("automata: state %d base %d overruns %d slots", q, b, len(s.Check))
		}
	}
	inRange := func(t int32) bool { return t >= 0 && int(t) < m }
	for i, t := range s.Next {
		if s.Check[i] != -1 && !inRange(t) {
			return fmt.Errorf("automata: sparse next[%d] = %d", i, t)
		}
	}
	for i, c := range s.Check {
		if c != -1 && !inRange(c) {
			return fmt.Errorf("automata: sparse check[%d] = %d", i, c)
		}
	}
	for q, t := range s.Default {
		if !inRange(t) {
			return fmt.Errorf("automata: state %d default %d", q, t)
		}
	}
	for i, t := range s.Dense {
		if !inRange(t) {
			return fmt.Errorf("automata: dense spill[%d] = %d", i, t)
		}
	}
	if s.Start != 0 {
		return fmt.Errorf("automata: sparse start state %d", s.Start)
	}
	return nil
}

// CoAccessible returns the set of states from which some final state is
// reachable, via reverse BFS over the sparse transitions — the analysis
// machinefile decoding rebuilds when a file carries only the sparse
// layout.
func (s *SparseDFA) CoAccessible() []bool {
	m := len(s.Accept)
	nc := len(s.Reps)
	rev := make([][]int32, m)
	for q := 0; q < m; q++ {
		prev := int32(-1)
		for c := 0; c < nc; c++ {
			t := int32(s.StepClass(q, c))
			if t != prev {
				rev[t] = append(rev[t], int32(q))
				prev = t
			}
		}
	}
	coacc := make([]bool, m)
	var queue []int32
	for q := 0; q < m; q++ {
		if s.IsFinal(q) {
			coacc[q] = true
			queue = append(queue, int32(q))
		}
	}
	for len(queue) > 0 {
		q := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, p := range rev[q] {
			if !coacc[p] {
				coacc[p] = true
				queue = append(queue, p)
			}
		}
	}
	return coacc
}
