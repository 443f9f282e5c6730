package automata

import (
	"bytes"
	"slices"
)

// Trie is the trie of a literal set [lits[0], ..., lits[n-1]] — rule β
// matches exactly the string lits[β], the least index winning among
// duplicates — numbered as the minimized tokenization DFA of that
// literal grammar numbers its states. Sparse, the row-displacement
// layout vocabularies serve from, is built from its child lists and
// never materializes the states×classes table; DFA, the class table
// LiteralSet returns, is the reference the tests compare it against.
// The trie is the automaton
// Minimize(Determinize(BuildNFA(Lit(lits[0]), ...))) produces, state for
// state and class for class:
//
//   - a trie with uniquely labeled finals is already minimal: every node
//     is a prefix of some literal whose label no other node carries, and
//     one dead state absorbs every missing edge;
//   - states are numbered breadth-first with children in byte order, and
//     the dead state takes the next id at the first missing edge the
//     search meets, which is the canonical order Minimize assigns;
//   - the class partition is exact by construction: a byte that occurs
//     in some literal leads from its parent to a distinct live state, so
//     it is a class of its own, while the bytes no literal uses go to the
//     dead state from every state and share one class. Classes are
//     numbered by least byte, as tighten numbers them.
//
// Every live state is co-accessible (it is a prefix of a literal, whose
// state is final); the dead state is the only state that is not.
type Trie struct {
	byteOf  []byte  // node -> label of the edge from its parent
	first   []int32 // node u's children are kids[first[u]:first[u+1]], in byte order
	kids    []int32
	id      []int32 // node -> state
	order   []int32 // live states' nodes in state order (the dead state skipped)
	dead    int32
	accept  []int32 // state -> rule, shared by DFA and Sparse
	classOf [256]uint8
	reps    []byte
}

// NewTrie builds the trie of lits. It allocates O(Σ|lits|): the nodes'
// parent, label and child arrays, never a per-state row.
func NewTrie(lits [][]byte) *Trie {
	if len(lits) == 0 {
		// The empty language: one non-final start state looping to itself,
		// which is also the dead state.
		return &Trie{dead: 0, accept: []int32{NoRule}, reps: []byte{0}}
	}

	// Insert the literals in sorted order, sharing each one's longest
	// common prefix with its predecessor: nodes are then created in
	// preorder, so every node's children are created in byte order.
	sorted := make([]int32, len(lits))
	for i := range sorted {
		sorted[i] = int32(i)
	}
	slices.SortFunc(sorted, func(a, b int32) int { return bytes.Compare(lits[a], lits[b]) })
	// A literal adds at most one node per byte, so Σ|lits| bounds the
	// node count up front.
	bound := 1
	for _, lit := range lits {
		bound += len(lit)
	}
	parent := append(make([]int32, 0, bound), -1) // trie node -> parent node; node 0 is the root
	byteOf := append(make([]byte, 0, bound), 0)
	label := append(make([]int32, 0, bound), NoRule)
	var used [256]bool
	path := []int32{0} // path[d] is the node of the current literal's length-d prefix
	var prev []byte
	for _, li := range sorted {
		lit := lits[li]
		lcp := 0
		for lcp < len(lit) && lcp < len(prev) && lit[lcp] == prev[lcp] {
			lcp++
		}
		path = path[:lcp+1]
		for _, b := range lit[lcp:] {
			path = append(path, int32(len(parent)))
			parent = append(parent, path[len(path)-2])
			byteOf = append(byteOf, b)
			label = append(label, NoRule)
			used[b] = true
		}
		if u := path[len(path)-1]; label[u] == NoRule || li < label[u] {
			label[u] = li
		}
		prev = lit
	}
	n := len(parent)

	// Group children by parent (kids[first[u]:first[u+1]]), keeping
	// creation order, which is byte order. The fill pass advances
	// first[u] to the end of u's children, where first[u+1] starts.
	first := make([]int32, n+1)
	for c := 1; c < n; c++ {
		first[parent[c]+1]++
	}
	for u := 0; u < n; u++ {
		first[u+1] += first[u]
	}
	kids := make([]int32, n-1)
	for c := 1; c < n; c++ {
		p := parent[c]
		kids[first[p]] = int32(c)
		first[p]++
	}
	copy(first[1:], first[:n])
	first[0] = 0

	// Breadth-first numbering; the dead state is interned at the first
	// missing edge. Children bytes are sorted and distinct, so the first
	// missing byte is the first index i whose child is not on byte i.
	// The queue is the live states' nodes in state order.
	id := make([]int32, n)
	queue := make([]int32, 1, n)
	next, dead := int32(1), int32(-1)
	for h := 0; h < len(queue); h++ {
		ks := kids[first[queue[h]]:first[queue[h]+1]]
		for i, c := range ks {
			if dead < 0 && int(byteOf[c]) != i {
				dead, next = next, next+1
			}
			id[c], next = next, next+1
			queue = append(queue, c)
		}
		if dead < 0 && len(ks) < 256 {
			dead, next = next, next+1
		}
	}

	accept := make([]int32, next)
	accept[dead] = NoRule
	for u, q := range id {
		accept[q] = label[u]
	}

	t := &Trie{byteOf: byteOf, first: first, kids: kids, id: id, order: queue, dead: dead, accept: accept}
	unused := -1
	for b := 0; b < 256; b++ {
		switch {
		case used[b]:
			t.classOf[b] = uint8(len(t.reps))
			t.reps = append(t.reps, byte(b))
		case unused < 0:
			unused = len(t.reps)
			t.classOf[b] = uint8(unused)
			t.reps = append(t.reps, byte(b))
		default:
			t.classOf[b] = uint8(unused)
		}
	}
	return t
}

// NumStates returns the state count of the trie's DFA, dead state
// included.
func (t *Trie) NumStates() int { return len(t.accept) }

// NumClasses returns the byte-class count C.
func (t *Trie) NumClasses() int { return len(t.reps) }

// Dead returns the dead state's id.
func (t *Trie) Dead() int { return int(t.dead) }

// children returns the children of the live state q's node.
func (t *Trie) children(q int) []int32 {
	i := q
	if q > int(t.dead) {
		i--
	}
	u := t.order[i]
	return t.kids[t.first[u]:t.first[u+1]]
}

// DFA materializes the class table: states×classes words, every
// missing edge routed to the dead state.
func (t *Trie) DFA() *DFA {
	m, nc := t.NumStates(), t.NumClasses()
	trans := make([]int32, m*nc)
	for i := range trans {
		trans[i] = t.dead
	}
	for q := 0; q < m; q++ {
		if q == int(t.dead) {
			continue
		}
		for _, c := range t.children(q) {
			trans[q*nc+int(t.classOf[t.byteOf[c]])] = t.id[c]
		}
	}
	return &DFA{Trans: trans, ClassOf: t.classOf, Reps: t.reps, Accept: t.accept, Start: 0}
}

// Sparse builds the row-displacement layout Sparsify(t.DFA()) returns,
// straight from the child lists, in O(trie edges) memory. Each row's
// default is the one Sparsify picks (the most frequent target, ties to
// the lowest state id): the dead state when two or more classes miss,
// the lowest target otherwise. The layout passes the same complete
// build-time check as Sparsify's, against the rows the child lists
// define. Extracting and checking the rows takes O(trie edges) time;
// the packer's first-fit search does not (rowTable.pack): on random
// tries its work grows about as the square of the state count.
func (t *Trie) Sparse() *SparseDFA { s, _ := t.SparseCost(); return s }

// SparseCost is Sparse that also returns the number of bitmap words the
// packer's first-fit search read: a deterministic measure of the
// packing work, independent of the host.
func (t *Trie) SparseCost() (*SparseDFA, int) {
	rt := t.rows()
	return rt.build(), rt.words
}

// rows extracts the trie's rows for the packer.
func (t *Trie) rows() *rowTable {
	m, nc := t.NumStates(), t.NumClasses()
	rt := newRowTable(&SparseDFA{ClassOf: t.classOf, Reps: t.reps, Accept: t.accept}, len(t.kids))
	for q := 0; q < m; q++ {
		if q == int(t.dead) {
			rt.endRow(q, t.dead)
			continue
		}
		ks := t.children(q)
		def := t.dead
		if missing := nc - len(ks); missing < 2 {
			// Every target occurs once: the lowest id wins. Children
			// are numbered in byte order, so the first is the lowest.
			if missing == 0 || (len(ks) > 0 && t.id[ks[0]] < def) {
				def = t.id[ks[0]]
			}
		}
		if def == t.dead {
			for _, c := range ks {
				rt.add(int32(t.classOf[t.byteOf[c]]), t.id[c])
			}
		} else {
			// At most one class misses; walk all classes to place its
			// dead-state entry among the children's.
			j := 0
			for c := 0; c < nc; c++ {
				tgt := t.dead
				if j < len(ks) && int(t.classOf[t.byteOf[ks[j]]]) == c {
					tgt = t.id[ks[j]]
					j++
				}
				if tgt != def {
					rt.add(int32(c), tgt)
				}
			}
		}
		rt.endRow(q, def)
	}
	return rt
}

// LiteralSet builds the tokenization DFA of the literal grammar lits as
// a class table: NewTrie(lits).DFA(). Production never calls it (nor
// DFA): vocabularies serve from Trie.Sparse, and LiteralSet is the
// class-table reference the tests compare that layout against.
func LiteralSet(lits [][]byte) *DFA { return NewTrie(lits).DFA() }
