package automata

import (
	"fmt"
	"math/bits"
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

// Sparsify builds the row-displacement layout for the class table of d.
// It is one of the packer's two row sources (Trie.Sparse is the other):
// each row's majority target becomes its default, ties to the lowest
// state id, and the classes with any other target become its entries.
// The construction is deterministic. Production never calls it: it is
// the class-table reference the automata, tokdfa and bpe tests compare
// Trie.Sparse against.
func Sparsify(d *DFA) *SparseDFA { return classRows(d).build() }

// classRows extracts the class table's rows for the packer (Sparsify's
// row source; test reference only, like Sparsify).
func classRows(d *DFA) *rowTable {
	m := d.NumStates()
	nc := len(d.Reps)
	rt := newRowTable(&SparseDFA{ClassOf: d.ClassOf, Reps: d.Reps, Accept: d.Accept, Start: d.Start}, 0)
	counts := make([]int32, m) // per-row target tallies, zeroed after each row
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
		for c, t := range tr {
			if t != def {
				rt.add(int32(c), t)
			}
		}
		rt.endRow(q, def)
	}
	return rt
}

// rowTable is what a row source hands the packer: per state, in state
// order, a default target and the entries (class, target) whose target
// differs from it, in class order. The rows are a complete description
// of δ — every class a row lists no entry for goes to its default — so
// verify can check the packed layout against them on every (state,
// class) pair without a class table.
type rowTable struct {
	s   *SparseDFA
	def []int32 // def[q] is row q's default; verify checks s.Default against it
	off []int32 // row q's entries are cls/tgt[off[q]:off[q+1]]
	cls []int32
	tgt []int32
	// words is the bitmap words pack's first-fit search read.
	words int
}

// newRowTable starts the rows of s, which carries the class map, accept
// labels and start state; entries is a capacity hint.
func newRowTable(s *SparseDFA, entries int) *rowTable {
	m := len(s.Accept)
	s.Base = make([]int32, m)
	s.Default = make([]int32, m)
	return &rowTable{
		s:   s,
		def: make([]int32, 0, m),
		off: append(make([]int32, 0, m+1), 0),
		cls: make([]int32, 0, entries),
		tgt: make([]int32, 0, entries),
	}
}

// add appends an entry to the row under construction.
func (rt *rowTable) add(c, t int32) {
	rt.cls = append(rt.cls, c)
	rt.tgt = append(rt.tgt, t)
}

// entries returns row q's entry classes and targets.
func (rt *rowTable) entries(q int) (cls, tgt []int32) {
	lo, hi := rt.off[q], rt.off[q+1]
	return rt.cls[lo:hi], rt.tgt[lo:hi]
}

// endRow closes row q (rows arrive in state order) with default def. A
// row with more entries than the dense threshold is stored out of line
// in Dense; the packer displaces the others.
func (rt *rowTable) endRow(q int, def int32) {
	s := rt.s
	rt.def = append(rt.def, def)
	rt.off = append(rt.off, int32(len(rt.cls)))
	s.Default[q] = def
	nc := len(s.Reps)
	cls, tgt := rt.entries(q)
	if len(cls) <= denseRowThreshold(nc) {
		return
	}
	r := int32(len(s.Dense) / nc)
	row := len(s.Dense)
	for range nc {
		s.Dense = append(s.Dense, def)
	}
	for i, c := range cls {
		s.Dense[row+int(c)] = tgt[i]
	}
	s.Base[q] = -(r + 1)
}

// build packs the rows and checks the layout against them.
func (rt *rowTable) build() *SparseDFA {
	rt.pack()
	rt.verify()
	return rt.s
}

// pack lays the displaced rows into Next/Check first-fit, in decreasing
// entry-count order (ties by state id): each row takes the least base at
// or past the first free slot whose slots are all free. Arrays grow as
// bases push past the current end and are finally padded so Base[q]+c
// is in bounds for every class. Rows with no entries claim no slots and
// keep base 0.
//
// The search works in start slots, a row's base plus its first class,
// over a bitmap of claimed slots (freeMap), 64 candidate starts per
// step. A row's shape is its classes less its first one. Whether a start
// slot fits a shape depends only on the claimed slots, and slots are
// only ever claimed, so a start that once did not fit never will: each
// shape keeps the last span of starts its rows' searches ruled out, and
// a row whose search would begin inside that span begins past it. Every
// row still lands on the base the one-base-at-a-time search picks.
//
// The search is not linear. A row reads up to two words per entry for
// every 64 starts between where its search begins and where it lands,
// O(entries × slots / 64) words in the worst case. The spans pay off
// when many rows share a shape: the trained 8k vocabulary reads 0.10 M
// words (3.29 M without them). Random tries have few repeated shapes,
// and their word count grows about as the square of the state count:
// 0.6 M words at 24.6k states, 103 M at 309k (EXPERIMENTS.md, "Packer
// without rescans").
func (rt *rowTable) pack() {
	s := rt.s
	nc := len(s.Reps)
	rows, entries := rt.packOrder()

	// The displaced entries plus one row's width is the usual final
	// size: the packing leaves few holes.
	slots := nc + entries
	s.Next = make([]int32, 0, slots)
	s.Check = make([]int32, 0, slots)
	grow := func(n int) {
		for len(s.Check) < n {
			s.Next = append(s.Next, 0)
			s.Check = append(s.Check, -1)
		}
	}
	free := freeMap{used: make([]uint64, 0, slots/64+1)}
	shapes := newShapeIndex(rt)
	firstFree := 0
	for _, q := range rows {
		cls, tgt := rt.entries(int(q))
		// base >= firstFree, as the one-base-at-a-time search starts there.
		from := firstFree + int(cls[0])
		sp := shapes.ruledOut(q)
		lo, hi := int(sp[0]), int(sp[1])
		if lo <= from && from < hi {
			from = hi
		}
		start := free.fit(cls, from)
		// The starts [from, start] are now ruled out for the shape.
		if lo <= from && from <= hi {
			sp[1] = int32(start + 1)
		} else {
			sp[0], sp[1] = int32(from), int32(start+1)
		}
		base := start - int(cls[0])
		grow(base + int(cls[len(cls)-1]) + 1)
		for k, c := range cls {
			i := base + int(c)
			s.Check[i] = q
			s.Next[i] = tgt[k]
			free.claim(i)
		}
		s.Base[q] = int32(base)
		firstFree = free.next(firstFree)
	}
	grow(maxBase(s.Base) + nc)
	rt.words = free.reads
}

// packOrder returns the displaced rows with entries in packing order,
// by a stable counting sort on entry count, and their entry total.
func (rt *rowTable) packOrder() (rows []int32, entries int) {
	s := rt.s
	start := make([]int32, denseRowThreshold(len(s.Reps))+1)
	n := 0
	for q, b := range s.Base {
		if k := rt.off[q+1] - rt.off[q]; b == 0 && k > 0 {
			start[k]++
			n++
			entries += int(k)
		}
	}
	at := int32(0)
	for k := len(start) - 1; k > 0; k-- {
		at, start[k] = at+start[k], at
	}
	rows = make([]int32, n)
	for q, b := range s.Base {
		if k := rt.off[q+1] - rt.off[q]; b == 0 && k > 0 {
			rows[start[k]] = int32(q)
			start[k]++
		}
	}
	return rows, entries
}

// freeMap records the packer's claimed slots: bit i%64 of used[i/64] is
// set once slot i is claimed. Slots past the end of used are free.
type freeMap struct {
	used  []uint64
	reads int // words window has read: the search's cost
}

// window returns the claim bits of slots p..p+63, bit j for slot p+j.
func (f *freeMap) window(p int) uint64 {
	w, sh := p>>6, uint(p&63)
	if w >= len(f.used) {
		return 0
	}
	f.reads++
	x := f.used[w] >> sh
	if sh != 0 && w+1 < len(f.used) {
		f.reads++
		x |= f.used[w+1] << (64 - sh)
	}
	return x
}

// fit returns the least start slot p >= from such that every slot
// p+c-cls[0], c in cls, is free.
func (f *freeMap) fit(cls []int32, from int) int {
	c0 := cls[0]
	for p := from; ; p += 64 {
		fits := ^uint64(0)
		for _, c := range cls {
			if fits &^= f.window(p + int(c-c0)); fits == 0 {
				break
			}
		}
		if fits != 0 {
			return p + bits.TrailingZeros64(fits)
		}
	}
}

// claim marks slot i claimed.
func (f *freeMap) claim(i int) {
	for len(f.used) <= i>>6 {
		f.used = append(f.used, 0)
	}
	f.used[i>>6] |= 1 << uint(i&63)
}

// next returns the least free slot at or past i.
func (f *freeMap) next(i int) int {
	for w := i >> 6; w < len(f.used); w++ {
		if x := ^f.used[w] >> uint(i&63); x != 0 {
			return i + bits.TrailingZeros64(x)
		}
		i = (w + 1) << 6
	}
	return i
}

// shapeIndex maps a row's shape to the span of start slots ruled out
// for it: an open-addressed table keyed by the first row of each shape,
// at most 3/4 full, doubled as shapes arrive. A vocabulary trie has
// few shapes for its rows (259 for the 2,105 rows of two or more
// entries of the trained 8k vocabulary).
type shapeIndex struct {
	rt  *rowTable
	rep []int32    // a row of the slot's shape, or -1 for an empty slot
	out [][2]int32 // starts in [out[i][0], out[i][1]) fit no row of the shape
	n   int        // shapes in the table
}

// newShapeIndex returns an empty index over rt's rows.
func newShapeIndex(rt *rowTable) *shapeIndex {
	x := &shapeIndex{rt: rt}
	x.resize(64)
	return x
}

// resize rehashes the table into size slots.
func (x *shapeIndex) resize(size int) {
	rep, out := x.rep, x.out
	x.rep, x.out = make([]int32, size), make([][2]int32, size)
	for i := range x.rep {
		x.rep[i] = -1
	}
	for i, r := range rep {
		if r >= 0 {
			j := x.slot(r)
			x.rep[j], x.out[j] = r, out[i]
		}
	}
}

// ruledOut returns the ruled-out span of row q's shape, adding the
// shape (with an empty span) on first sight.
func (x *shapeIndex) ruledOut(q int32) *[2]int32 {
	i := x.slot(q)
	if x.rep[i] < 0 {
		if x.n++; x.n*4 > len(x.rep)*3 {
			x.resize(2 * len(x.rep))
			i = x.slot(q)
		}
		x.rep[i] = q
	}
	return &x.out[i]
}

// slot returns the slot of row q's shape, or the empty slot it would
// take.
func (x *shapeIndex) slot(q int32) int {
	cls, _ := x.rt.entries(int(q))
	h := uint32(len(cls))
	for _, c := range cls[1:] {
		h = (h ^ uint32(c-cls[0])) * 0x9e3779b1
	}
	mask := len(x.rep) - 1
	for i := int(h^h>>15) & mask; ; i = (i + 1) & mask {
		if r := x.rep[i]; r < 0 || x.sameShape(cls, r) {
			return i
		}
	}
}

// sameShape reports whether row r has the shape of the entry classes cls.
func (x *shapeIndex) sameShape(cls []int32, r int32) bool {
	other, _ := x.rt.entries(int(r))
	if len(other) != len(cls) {
		return false
	}
	for k := 1; k < len(cls); k++ {
		if other[k]-other[0] != cls[k]-cls[0] {
			return false
		}
	}
	return true
}

// verify is the build-time ground truth: the packed layout must agree
// with the rows on every (state, class) pair, or the build panics. It
// runs in O(states + entries + slots + dense entries), so neither row
// source needs a class table to be checked against:
//
//   - Default[q] is the row's default;
//   - a row past the dense threshold is the next dense row, equal to the
//     row entry by entry;
//   - every entry of a displaced row resolves through Check/Next in the
//     row's [Base, Base+C) window, which lies within the arrays, and an
//     entryless row keeps base 0;
//   - each state claims exactly as many slots as its row has entries
//     (none for a dense row), so every class the row lists no entry for
//     misses its slot and steps to the default.
func (rt *rowTable) verify() {
	s := rt.s
	m, nc := len(s.Accept), len(s.Reps)
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("automata: sparse table disagrees with its rows: "+format, args...))
	}
	dense := 0
	for q := 0; q < m; q++ {
		if s.Default[q] != rt.def[q] {
			fail("state %d default %d, row default %d", q, s.Default[q], rt.def[q])
		}
		cls, tgt := rt.entries(q)
		b := int(s.Base[q])
		if len(cls) > denseRowThreshold(nc) {
			if b != -(dense+1) || (dense+1)*nc > len(s.Dense) {
				fail("state %d base %d, want dense row %d", q, b, dense)
			}
			row := s.Dense[dense*nc : (dense+1)*nc]
			k := 0
			for c, t := range row {
				want := rt.def[q]
				if k < len(cls) && int(cls[k]) == c {
					want = tgt[k]
					k++
				}
				if t != want {
					fail("(%d, %d): dense %d, row %d", q, c, t, want)
				}
			}
			dense++
			continue
		}
		if b < 0 || b+nc > len(s.Check) || (len(cls) == 0 && b != 0) {
			fail("state %d base %d for %d entries in %d slots", q, b, len(cls), len(s.Check))
		}
		for k, c := range cls {
			if i := b + int(c); s.Check[i] != int32(q) || s.Next[i] != tgt[k] {
				fail("(%d, %d): slot %d owner %d next %d, row %d", q, c, i, s.Check[i], s.Next[i], tgt[k])
			}
		}
	}
	if dense*nc != len(s.Dense) {
		fail("%d dense entries for %d dense rows", len(s.Dense), dense)
	}
	claims := make([]int32, m)
	for i, owner := range s.Check {
		if owner == -1 {
			continue
		}
		if owner < 0 || int(owner) >= m {
			fail("slot %d owner %d", i, owner)
		}
		claims[owner]++
	}
	for q, n := range claims {
		want := rt.off[q+1] - rt.off[q]
		if s.Base[q] < 0 {
			want = 0
		}
		if n != want {
			fail("state %d claims %d slots for %d entries", q, n, want)
		}
	}
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
