package fused

import (
	"math/bits"
	"slices"

	"streamtok/internal/tokdfa"
)

// packedWorkCap bounds the packed construction's work, counted in
// window slots: exploring a state evaluates C transitions, each writing
// a successor key of (K+1)(K+2)/2 slots. Grammars that pack stay below
// it (sql-inserts, the largest, needs 101,520); a product that explodes
// (xml, K = 6 and 28 slots per state, reaches 3,530 states) aborts as
// soon as the states found would need more, so a grammar that does not
// pack costs setup less than sql-inserts spends packing.
const packedWorkCap = 1 << 17

// product is the reachable part of the Fig. 6 engine's state space read
// as one automaton over byte classes. B exists only to decide whether a
// final state of A is extended within the next K bytes, so a state keeps
// what A does over the f ≤ K delayed bytes instead of the bytes
// themselves: for the run from q_A, and for every delayed position where
// a token can still start, A's state at the window's end and a tag per
// earlier position — the action A's state there would take (continue,
// dead, or emit its rule). One transition extends every run by the new
// byte; once the window is full, A's step onto the first delayed byte
// emits when that position is final on the run from q_A and no later
// position on it is, and the run from that position then becomes the
// run from q_A.
type product struct {
	n, nc int
	// act[p*nc+c] is SActContinue, SActDead or SActEmitBase+rule.
	act []uint8
	// next[p*nc+c] is the successor state; 0 after a dead action, where
	// the loop stops and the target is never read.
	next []int32
	// explored counts the (state, class) transitions evaluated,
	// including those of an aborted construction.
	explored int
}

// runWindow steps the packed construction's states. A state is a key of
// w = (K+1)(K+2)/2 slots, one row per window position j = 0..K holding
// slots (j, j..K): slot (0, 0) is the fill f, slot (j, j) for j ≥ 1
// marks that a token can still start at delayed position j, and for the
// run from j (j = 0: from q_A) slots (j, j+1..f−1) are its tags and slot
// (j, f) A's state at the window's end. Unused slots are 0.
//
// A transition is computed in three steps: load decodes the source
// state, once for all classes; stepEnds steps every run's end state on
// the class; finish decides the action and writes the successor key.
// The successor depends on the class only through the stepped ends, so
// classes that step them alike share one finish.
type runWindow struct {
	k, w, nc int
	off      []int   // off[j]: index of slot (j, j)
	trans    []int32 // A's transitions, every dead state mapped to one
	tag      []uint8 // tag[q]: SActContinue, SActDead or SActEmitBase+rule
	start    int32
	// The loaded state, over the window extended by the new byte
	// (positions 0..f+1): runs j = 0..f, the one from f opened
	// tentatively; olds[j] is run j's end before the byte, -1 when the
	// run is absent.
	f       int
	nsig    int // runs whose end can matter: f+1, or f when none is final at f
	olds    []int32
	tags    []uint8 // tags[j*(k+2)+p]: run j's tag at position p ≤ f
	lastOld []int   // last final position ≤ f on run j, or -1
	// The class being stepped.
	ends    []int32 // run j's end after the byte (-1: absent)
	lastFin []int   // last final position ≤ f+1 on run j, or -1
}

func newRunWindow(m *tokdfa.Machine, k int) *runWindow {
	d := m.DFA
	n, nc := d.NumStates(), d.NumClasses()
	r := &runWindow{k: k, w: (k + 1) * (k + 2) / 2, nc: nc, start: int32(d.Start),
		off: make([]int, k+1), trans: make([]int32, len(d.Trans)), tag: make([]uint8, n),
		olds: make([]int32, k+1), tags: make([]uint8, (k+2)*(k+2)), lastOld: make([]int, k+1),
		ends: make([]int32, k+1), lastFin: make([]int, k+1)}
	for j := 1; j <= k; j++ {
		r.off[j] = r.off[j-1] + k + 2 - j
	}
	dead := int32(-1)
	canon := make([]int32, n)
	for q := 0; q < n; q++ {
		canon[q] = int32(q)
		switch {
		case m.IsDead(q):
			if dead < 0 {
				dead = int32(q)
			}
			canon[q] = dead
			r.tag[q] = uint8(SActDead)
		case d.IsFinal(q):
			r.tag[q] = uint8(SActEmitBase) + uint8(d.Rule(q))
		}
	}
	for i, q := range d.Trans {
		r.trans[i] = canon[q]
	}
	return r
}

// load decodes state src: every run's end state and tags, the window's
// old end tagged.
func (r *runWindow) load(src []int32) {
	f, stride := int(src[0]), r.k+2
	r.f = f
	emitBase := uint8(SActEmitBase)
	for j := 0; j <= f; j++ {
		r.lastOld[j] = -1
		switch {
		case j == f:
			r.olds[j] = r.start // a token may start at the old end; decided in finish
		case j == 0 || src[r.off[j]] != 0:
			row := src[r.off[j]:]
			e := row[f-j]
			r.olds[j] = e
			t := r.tags[j*stride:]
			for p := j + 1; p < f; p++ {
				t[p] = uint8(row[p-j])
				if t[p] >= emitBase {
					r.lastOld[j] = p
				}
			}
			t[f] = r.tag[e]
			if t[f] >= emitBase {
				r.lastOld[j] = f
			}
		default:
			r.olds[j] = -1
		}
	}
	// The run opened at the old end is kept only where an earlier run is
	// final there; if none is, its end cannot matter.
	r.nsig = f + 1
	if f > 0 && !slices.Contains(r.lastOld[:f], f) {
		r.nsig = f
	}
}

// stepEnds steps every loaded run's end state on class c.
func (r *runWindow) stepEnds(c int) {
	n := r.f + 1
	olds, ends, lastOld, lastFin := r.olds[:n], r.ends[:n], r.lastOld[:n], r.lastFin[:n]
	trans, tag, nc := r.trans, r.tag, r.nc
	for j, e := range olds {
		ends[j], lastFin[j] = -1, lastOld[j]
		if e >= 0 {
			q := trans[int(e)*nc+c]
			ends[j] = q
			if tag[q] >= uint8(SActEmitBase) {
				lastFin[j] = n
			}
		}
	}
}

// sameEnds reports whether classes a and b step the end of every loaded
// run that can matter to the same state.
func (r *runWindow) sameEnds(a, b int) bool {
	for _, e := range r.olds[:r.nsig] {
		if e >= 0 && r.trans[int(e)*r.nc+a] != r.trans[int(e)*r.nc+b] {
			return false
		}
	}
	return true
}

// finish writes the successor of the loaded state under the stepped
// ends into dst (all w slots) and returns the transition's action; dst
// is unset after a dead action.
func (r *runWindow) finish(dst []int32) uint32 {
	k, f, stride := r.k, r.f, r.k+2
	act := SActContinue
	from, shift, nf := 0, 0, f+1
	if f == k {
		// A consumes the first delayed byte: position 1 on the run from
		// q_A, with K bytes of lookahead after it in the window.
		t1 := r.tags[1]
		if uint32(t1) == SActDead {
			return SActDead
		}
		if t1 >= uint8(SActEmitBase) && r.lastFin[0] == 1 {
			act, from = uint32(t1), 1
		}
		shift, nf = 1, k
	}
	// Keep the run from delayed position j (new numbering) only while a
	// token can still start there: a kept run is final at j and at no
	// later position of the window, which lies within K of j. starts
	// marks (old numbering) the last final position of every kept run.
	clear(dst)
	dst[0] = int32(nf)
	ends, lastFin, tags, off := r.ends, r.lastFin, r.tags, r.off
	var starts uint64
	for j := 0; j < nf; j++ {
		o := j + shift
		if j == 0 {
			o = from
		} else if ends[o] < 0 || starts&(1<<o) == 0 {
			continue
		}
		if l := lastFin[o]; l >= 0 {
			starts |= 1 << l
		}
		row := dst[off[j]:]
		if j > 0 {
			row[0] = 1
		}
		t := tags[o*stride+shift:]
		for p := j + 1; p < nf; p++ {
			row[p-j] = int32(t[p])
		}
		row[nf-j] = ends[o]
	}
	return act
}

// buildProduct explores the product breadth-first from the empty
// window. It reports false as soon as the states found need more work
// than packedWorkCap to explore: C transitions each, (K+1)(K+2)/2 slots
// per transition.
func buildProduct(m *tokdfa.Machine, k int) (*product, bool) {
	r := newRunWindow(m, k)
	nc, w := r.nc, r.w
	p := &product{nc: nc}
	// keys holds every state's w slots; ids is an open-addressed table
	// of state ids (-1 empty) hashed on the key, kept at most half full.
	keys := make([]int32, w, 64*w)
	ids := make([]int32, 64)
	for i := range ids {
		ids[i] = -1
	}
	hash := func(key []int32) uint32 {
		h := uint64(14695981039346656037)
		for _, v := range key {
			h = (h ^ uint64(uint32(v))) * 1099511628211
		}
		return uint32(h ^ h>>32)
	}
	insert := func(id int32) {
		mask := uint32(len(ids) - 1)
		slot := hash(keys[int(id)*w:int(id+1)*w]) & mask
		for ids[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		ids[slot] = id
	}
	insert(0)
	dst := make([]int32, w)
	// The successor depends on the class only through the stepped run
	// ends, so classes that step every run alike share one finish: per
	// state, sig[c] hashes the ends class c steps to, and memo is an
	// open-addressed index (class+1, 0 empty) of the classes finished.
	sig := make([]uint64, nc)
	memo := make([]int32, 2<<bits.Len(uint(nc)))
	memoMask := uint32(len(memo) - 1)
	for i := 0; i*w < len(keys); i++ {
		if len(p.act)+nc > cap(p.act) {
			// Double by hand: append's 1.25× growth past 256 entries
			// would allocate several times the final table.
			p.act = slices.Grow(p.act, len(p.act)+nc)
			p.next = slices.Grow(p.next, len(p.next)+nc)
		}
		r.load(keys[i*w : (i+1)*w])
		for c := range sig {
			sig[c] = 14695981039346656037
		}
		for _, e := range r.olds[:r.nsig] {
			if e >= 0 {
				for c, q := range r.trans[int(e)*nc : int(e+1)*nc] {
					sig[c] = (sig[c] ^ uint64(uint32(q))) * 1099511628211
				}
			}
		}
		clear(memo)
		row := len(p.act)
	classes:
		for c := 0; c < nc; c++ {
			p.explored++
			slot := uint32(sig[c]^sig[c]>>32) & memoMask
			for ; memo[slot] != 0; slot = (slot + 1) & memoMask {
				if x := int(memo[slot] - 1); r.sameEnds(x, c) {
					p.act = append(p.act, p.act[row+x])
					p.next = append(p.next, p.next[row+x])
					continue classes
				}
			}
			memo[slot] = int32(c + 1)
			r.stepEnds(c)
			act := r.finish(dst)
			var to int32
			if act != SActDead {
				mask := uint32(len(ids) - 1)
				for slot := hash(dst) & mask; ; slot = (slot + 1) & mask {
					id := ids[slot]
					if id < 0 {
						to = int32(len(keys) / w)
						if int(to+1)*nc*w > packedWorkCap {
							// Exploring every state found so far
							// would already pass the bound.
							return p, false
						}
						keys = append(keys, dst...)
						ids[slot] = to
						if n := len(keys) / w; 2*n > len(ids) {
							ids = make([]int32, 2*len(ids))
							for s := range ids {
								ids[s] = -1
							}
							for id := int32(0); int(id) < n; id++ {
								insert(id)
							}
						}
						break
					}
					if slices.Equal(keys[int(id)*w:int(id+1)*w], dst) {
						to = id
						break
					}
				}
			}
			p.act = append(p.act, uint8(act))
			p.next = append(p.next, to)
		}
	}
	p.n = len(keys) / w
	return p, true
}

// minimize returns each state's block in the coarsest partition whose
// same-block states have, on every class, the same action and targets
// in the same block (Moore refinement; a dead action's target is
// ignored). Each round hashes the signature — block, then action and
// target block per class — of every state whose block has more than
// one state (a singleton cannot split), sorts those states by the hash
// and splits blocks where the signature changes: the first part met of
// a block keeps its id, the others get new ones. It stops at the first
// round that splits nothing. Two signatures can only share a block when
// they are equal, so a hash collision can at worst split a block that
// needed no split. Blocks are finally numbered by first appearance in
// breadth-first order, so the start state is block 0.
func (p *product) minimize() (block []int32, blocks int) {
	n, nc := p.n, p.nc
	block = make([]int32, n)
	size := make([]int32, 1, n)
	size[0] = int32(n)
	// order holds a signature hash in the high bits and the state in the
	// low stateBits, so one integer sort groups the states.
	const stateBits = 23
	order := make([]uint64, 0, n)
	part := make([]int32, n)    // each ordered state's block after the round
	claimed := make([]int32, n) // round+1 once a block's first part is met
	// same reports whether two states' signatures are equal.
	same := func(a, b int) bool {
		if block[a] != block[b] {
			return false
		}
		for c := 0; c < nc; c++ {
			x, y := a*nc+c, b*nc+c
			if p.act[x] != p.act[y] || uint32(p.act[x]) != SActDead && block[p.next[x]] != block[p.next[y]] {
				return false
			}
		}
		return true
	}
	for round := int32(1); ; round++ {
		order = order[:0]
		for s := range block {
			if size[block[s]] == 1 {
				continue
			}
			h := uint64(block[s]+1) * 0x9e3779b97f4a7c15
			for c := 0; c < nc; c++ {
				x := s*nc + c
				v := uint64(p.act[x])
				if uint32(v) != SActDead {
					v |= uint64(block[p.next[x]]) << 8
				}
				h = (h ^ v) * 0x100000001b3
			}
			order = append(order, h<<stateBits|uint64(s))
		}
		slices.Sort(order)
		split := false
		for i, o := range order {
			s := int(o & (1<<stateBits - 1))
			if i > 0 {
				prev := int(order[i-1] & (1<<stateBits - 1))
				if order[i-1]>>stateBits == o>>stateBits && same(prev, s) {
					part[s] = part[prev]
					continue
				}
			}
			if b := block[s]; claimed[b] != round {
				claimed[b], part[s] = round, b
			} else {
				part[s], split = int32(len(size)), true
				size = append(size, 0)
			}
		}
		if !split {
			break
		}
		for _, o := range order {
			s := int(o & (1<<stateBits - 1))
			size[block[s]]--
			block[s] = part[s]
			size[block[s]]++
		}
	}
	// Renumber by first appearance in state order.
	renum := part[:len(size)]
	for i := range renum {
		renum[i] = -1
	}
	for s, b := range block {
		if renum[b] < 0 {
			renum[b] = int32(blocks)
			blocks++
		}
		block[s] = renum[b]
	}
	return block, blocks
}

// buildPacked compiles a K ≥ 2 machine into the single-table layout
// over the minimized product. It returns nil when the construction
// passes packedWorkCap, the rules do not fit the action byte, or the
// table exceeds the budget; explored is the construction's transition
// count either way.
func buildPacked(m *tokdfa.Machine, k int, opts Options) (e *Engine, explored int) {
	if len(m.Grammar.Rules)+int(SActEmitBase) > 255 {
		return nil, 0
	}
	p, ok := buildProduct(m, k)
	if !ok {
		return nil, p.explored
	}
	block, n := p.minimize()
	nc := p.nc
	if n*nc*4+n*4+256 > opts.MaxTableBytes {
		return nil, p.explored
	}
	e = &Engine{K: k, ClassOf: m.DFA.ClassOf, NumClasses: nc, packedStates: n, name: smallName(k)}
	e.Words = make([]uint32, n*nc)
	done := make([]bool, n)
	for s := 0; s < p.n; s++ {
		b := block[s]
		if done[b] {
			continue
		}
		done[b] = true
		for c := 0; c < nc; c++ {
			a := uint32(p.act[s*nc+c])
			var to uint32
			if a != SActDead {
				to = uint32(block[p.next[s*nc+c]])
			}
			e.Words[int(b)*nc+c] = to | a<<SmallActShift
		}
	}
	if !opts.NoAccel {
		e.addSmallAccel(n)
	}
	return e, p.explored
}
