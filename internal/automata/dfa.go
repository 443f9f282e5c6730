package automata

import "sort"

// DFA is a complete deterministic automaton over the byte alphabet with a
// byte-class compressed transition table. State 0 is the start state.
// Accept[q] holds the preferred rule id Λ(q) (NoRule for non-final states).
//
// The 256-byte alphabet is partitioned into C column-equivalence classes
// (flex-style table compression): two bytes are in the same class iff every
// state transitions identically on them. The table stores one column per
// class — Trans[q*C+c] — and ClassOf maps bytes to classes, so the dense
// δ(q, b) view costs one extra L1-resident lookup. Real grammars have
// C ≈ 10–60, so tables, build time, and minimization all shrink ~C/256
// versus dense rows. DenseTrans materializes the dense view on demand.
//
// A DFA built by Determinize is complete: every state has a transition on
// every byte, with failures routed to an explicit dead state (a non-final
// state from which no final state is reachable).
type DFA struct {
	// Trans is the flattened class-compressed transition table:
	// Trans[q*NumClasses()+int(ClassOf[b])] is δ(q, b).
	Trans []int32
	// ClassOf maps each byte to its column class id in [0, NumClasses()).
	ClassOf [256]uint8
	// Reps holds one representative byte per class; len(Reps) is the class
	// count C.
	Reps []byte
	// Accept[q] is the rule id Λ(q), or NoRule.
	Accept []int32
	// Start is the start state id (always 0 for Determinize output).
	Start int
}

// NumStates returns the number of DFA states ("DFA Size" in Table 1).
func (d *DFA) NumStates() int { return len(d.Accept) }

// NumClasses returns the byte-class count C (the compressed row width).
func (d *DFA) NumClasses() int { return len(d.Reps) }

// Step returns δ(q, b).
func (d *DFA) Step(q int, b byte) int {
	return int(d.Trans[q*len(d.Reps)+int(d.ClassOf[b])])
}

// StepClass returns δ(q, b) for any byte b with ClassOf[b] == c.
func (d *DFA) StepClass(q, c int) int { return int(d.Trans[q*len(d.Reps)+c]) }

// IsFinal reports whether q is a final state.
func (d *DFA) IsFinal(q int) bool { return d.Accept[q] != NoRule }

// Rule returns Λ(q): the preferred rule id of final state q, or NoRule.
func (d *DFA) Rule(q int) int { return int(d.Accept[q]) }

// Run returns δ(Start, w).
func (d *DFA) Run(w []byte) int {
	q := d.Start
	for _, b := range w {
		q = d.Step(q, b)
	}
	return q
}

// Accepts reports whether w is in the DFA's language.
func (d *DFA) Accepts(w []byte) bool { return d.IsFinal(d.Run(w)) }

// TableBytes returns the resident size of the compressed table: transition
// words, accept labels, class map, and representatives.
func (d *DFA) TableBytes() int {
	return len(d.Trans)*4 + len(d.Accept)*4 + 256 + len(d.Reps)
}

// DenseTrans materializes the dense 256-ary view of the transition table
// (dense[q*256+int(b)] = δ(q, b)). It is an export/compatibility view —
// machinefile v1/v2 round-trips, generated-code comparisons — never the
// engine's working representation.
func (d *DFA) DenseTrans() []int32 {
	c := len(d.Reps)
	out := make([]int32, d.NumStates()*256)
	for q := 0; q < d.NumStates(); q++ {
		row := d.Trans[q*c : (q+1)*c]
		dst := out[q*256 : (q+1)*256]
		for b := 0; b < 256; b++ {
			dst[b] = row[d.ClassOf[b]]
		}
	}
	return out
}

// FromDense builds a class-compressed DFA from a dense 256-ary transition
// table (machinefile v1/v2 payloads and test fixtures). The class partition
// is computed exactly, so Step agrees with trans on every (state, byte).
func FromDense(trans []int32, accept []int32, start int) *DFA {
	n := len(accept)
	classOf, reps := ByteClasses(n, func(q int, b byte) int {
		return int(trans[q<<8|int(b)])
	})
	c := len(reps)
	ct := make([]int32, n*c)
	for q := 0; q < n; q++ {
		for ci, rep := range reps {
			ct[q*c+ci] = trans[q<<8|int(rep)]
		}
	}
	return &DFA{Trans: ct, ClassOf: classOf, Reps: reps, Accept: accept, Start: start}
}

// tighten merges byte classes whose compressed columns are identical,
// shrinking the table in place. Determinize seeds the partition from NFA
// transition labels, which is conservative (never merges bytes that
// differ) but can be finer than true column equivalence — e.g. two
// letters in distinct keyword positions that every DFA state nevertheless
// treats identically. Minimization can also merge previously distinct
// columns. One O(C·M) pass restores the exact partition.
func (d *DFA) tighten() {
	c := len(d.Reps)
	m := d.NumStates()
	if c <= 1 {
		return
	}
	// Hash each column, then compare within hash buckets (collision-safe).
	hashes := make([]uint64, c)
	for ci := 0; ci < c; ci++ {
		h := uint64(14695981039346656037)
		for q := 0; q < m; q++ {
			h ^= uint64(d.Trans[q*c+ci])
			h *= 1099511628211
		}
		hashes[ci] = h
	}
	sameCol := func(a, b int) bool {
		for q := 0; q < m; q++ {
			if d.Trans[q*c+a] != d.Trans[q*c+b] {
				return false
			}
		}
		return true
	}
	newOf := make([]int, c) // old class -> new class
	var keep []int          // new class -> old class (first member)
	byHash := make(map[uint64][]int, c)
	for ci := 0; ci < c; ci++ {
		found := -1
		for _, prev := range byHash[hashes[ci]] {
			if sameCol(prev, ci) {
				found = newOf[prev]
				break
			}
		}
		if found < 0 {
			found = len(keep)
			keep = append(keep, ci)
			byHash[hashes[ci]] = append(byHash[hashes[ci]], ci)
		}
		newOf[ci] = found
	}
	nc := len(keep)
	if nc == c {
		return
	}
	nt := make([]int32, m*nc)
	for q := 0; q < m; q++ {
		row := d.Trans[q*c : (q+1)*c]
		dst := nt[q*nc : (q+1)*nc]
		for ni, oi := range keep {
			dst[ni] = row[oi]
		}
	}
	nreps := make([]byte, nc)
	for ni, oi := range keep {
		nreps[ni] = d.Reps[oi]
	}
	for b := 0; b < 256; b++ {
		d.ClassOf[b] = uint8(newOf[d.ClassOf[b]])
	}
	d.Trans, d.Reps = nt, nreps
}

// Determinize applies the subset construction to n. Rule priorities carry
// over: a subset's Accept is the least rule id among its members' Accepts.
// The result is complete (the empty subset becomes an explicit dead state).
//
// The construction runs over byte classes, not bytes: the alphabet is
// pre-partitioned by the NFA's transition labels (bytes no label
// distinguishes land in one block), so each subset expands one successor
// per class instead of 256. A final tighten pass merges any blocks the DFA
// itself cannot distinguish, making the stored partition exact.
func Determinize(n *NFA) *DFA {
	classOf, reps := n.byteClasses()
	nc := len(reps)

	key := func(set []int) string {
		buf := make([]byte, len(set)*4)
		for i, s := range set {
			buf[i*4] = byte(s)
			buf[i*4+1] = byte(s >> 8)
			buf[i*4+2] = byte(s >> 16)
			buf[i*4+3] = byte(s >> 24)
		}
		return string(buf)
	}

	cl := newCloser(n)
	start := cl.closure([]int{n.Start})
	ids := map[string]int{}
	var subsets [][]int
	var accepts []int32

	intern := func(set []int) int {
		k := key(set)
		if id, ok := ids[k]; ok {
			return id
		}
		id := len(subsets)
		ids[k] = id
		subsets = append(subsets, set)
		acc := int32(NoRule)
		for _, s := range set {
			if a := n.States[s].Accept; a != NoRule && (acc == NoRule || int32(a) < acc) {
				acc = int32(a)
			}
		}
		accepts = append(accepts, acc)
		return id
	}

	intern(start)
	var trans []int32
	moveMark := make([]int32, len(n.States))
	moveStamp := int32(0)
	var moved []int
	for q := 0; q < len(subsets); q++ {
		row := make([]int32, nc)
		set := subsets[q]
		// For each class representative, collect move(set, rep) and
		// ε-close it. Every byte in the class behaves identically by
		// construction of the partition.
		for ci, rep := range reps {
			moved = moved[:0]
			moveStamp++
			for _, s := range set {
				st := &n.States[s]
				if st.Next >= 0 && st.Class.Contains(rep) && moveMark[st.Next] != moveStamp {
					moveMark[st.Next] = moveStamp
					moved = append(moved, st.Next)
				}
			}
			var target []int
			if len(moved) > 0 {
				sort.Ints(moved)
				target = cl.closure(moved)
			}
			row[ci] = int32(intern(target))
		}
		trans = append(trans, row...)
	}
	d := &DFA{Trans: trans, ClassOf: classOf, Reps: reps, Accept: accepts, Start: 0}
	d.tighten()
	return d
}

// closer computes ε-closures with a stamp array instead of per-call maps;
// subset construction calls it once per (subset, class) pair, so the
// allocation-free path matters for compile time on large grammars.
type closer struct {
	n     *NFA
	mark  []int32
	stamp int32
	stack []int
}

func newCloser(n *NFA) *closer {
	return &closer{n: n, mark: make([]int32, len(n.States))}
}

// closure expands set to its ε-closure, returned sorted in a fresh slice.
func (c *closer) closure(set []int) []int {
	c.stamp++
	stack := c.stack[:0]
	out := make([]int, 0, len(set)*2)
	for _, s := range set {
		if c.mark[s] != c.stamp {
			c.mark[s] = c.stamp
			stack = append(stack, s)
			out = append(out, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range c.n.States[s].Eps {
			if c.mark[t] != c.stamp {
				c.mark[t] = c.stamp
				stack = append(stack, t)
				out = append(out, t)
			}
		}
	}
	c.stack = stack[:0]
	sort.Ints(out)
	return out
}

// byteClasses partitions the byte alphabet so that bytes inside one block
// are indistinguishable to every NFA transition label: refine {Σ} by each
// distinct charclass appearing on a transition. The result is conservative
// — possibly finer than the DFA's true column equivalence, never coarser —
// and Determinize tightens it to exact afterwards. Cost is O(states) for
// label dedup plus O(256) per distinct label, stopping early once the
// partition is discrete.
func (n *NFA) byteClasses() (classOf [256]uint8, reps []byte) {
	seen := make(map[[4]uint64]bool)
	numBlocks := 1
	for i := range n.States {
		st := &n.States[i]
		if st.Next < 0 {
			continue
		}
		w := st.Class.Words()
		if seen[w] {
			continue
		}
		seen[w] = true
		if numBlocks == 256 {
			break
		}
		// Split every block by membership in this class, interning
		// (block, inClass) pairs in byte order so block ids stay sorted
		// by first occurrence.
		var pairID [512]int16
		for i := range pairID {
			pairID[i] = -1
		}
		var next [256]uint8
		count := 0
		for b := 0; b < 256; b++ {
			idx := int(classOf[b]) << 1
			if st.Class.Contains(byte(b)) {
				idx |= 1
			}
			if pairID[idx] < 0 {
				pairID[idx] = int16(count)
				count++
			}
			next[b] = uint8(pairID[idx])
		}
		classOf = next
		numBlocks = count
	}
	reps = make([]byte, numBlocks)
	var have [256]bool
	for b := 0; b < 256; b++ {
		if c := classOf[b]; !have[c] {
			have[c] = true
			reps[c] = byte(b)
		}
	}
	return classOf, reps
}

// Reachable returns the set of states reachable from the start state as a
// boolean slice.
func (d *DFA) Reachable() []bool {
	nc := len(d.Reps)
	seen := make([]bool, d.NumStates())
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := 0; c < nc; c++ {
			t := int(d.Trans[q*nc+c])
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// ReachableNonEmpty returns the set of states q with q = δ(u) for some
// u ∈ Σ⁺, i.e. reachable from the start by at least one symbol (line 3 of
// Fig. 3 restricts the initial frontier to such states).
func (d *DFA) ReachableNonEmpty() []bool {
	nc := len(d.Reps)
	seen := make([]bool, d.NumStates())
	var stack []int
	for c := 0; c < nc; c++ {
		t := int(d.Trans[d.Start*nc+c])
		if !seen[t] {
			seen[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := 0; c < nc; c++ {
			t := int(d.Trans[q*nc+c])
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// CoAccessible returns the set of states from which some final state is
// reachable (including final states themselves), via reverse BFS.
func (d *DFA) CoAccessible() []bool {
	m := d.NumStates()
	nc := len(d.Reps)
	// Build reverse adjacency (deduplicated per consecutive edge pair).
	rev := make([][]int32, m)
	for q := 0; q < m; q++ {
		prev := int32(-1)
		for c := 0; c < nc; c++ {
			t := d.Trans[q*nc+c]
			if t != prev {
				rev[t] = append(rev[t], int32(q))
				prev = t
			}
		}
	}
	coacc := make([]bool, m)
	var queue []int32
	for q := 0; q < m; q++ {
		if d.IsFinal(q) {
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

// IsDead reports whether q is a dead (reject/failure) state: non-final and
// unable to reach a final state. coacc must be the result of CoAccessible.
func (d *DFA) IsDead(q int, coacc []bool) bool { return !coacc[q] }
