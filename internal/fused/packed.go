package fused

import (
	"slices"

	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// packedStateCap bounds the reachable delayed product a packed engine is
// built from. Small-alphabet grammars with K = 2 stay below it (the
// BPE pretokenizer reaches 499 states, tsv 194, yaml 563); grammars
// whose product explodes (json reaches 118,045 states) abort after at
// most packedStateCap × C explored transitions and keep the pair-action
// tables.
const packedStateCap = 1 << 10

// product is the reachable part of the Fig. 6 engine's state space read
// as one automaton over byte classes: a state is (q_A, s_B, the classes
// of the f ≤ K bytes B has consumed but A has not), and one transition
// steps B on the new byte and A on the oldest delayed one, decides the
// action, and folds an emission's restart of A into the target.
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

// buildProduct explores the product breadth-first from (Start_A,
// Start_B, no delayed bytes), the fill phase included. It reports false
// once more than packedStateCap states are reachable.
func buildProduct(m *tokdfa.Machine, k int, te *tepath.Table) (*product, bool) {
	d := m.DFA
	bt, nc, emitOK, _ := te.Dump()
	p := &product{nc: nc}
	// Per state: A's and B's states and the delayed classes, k slots
	// each, of which the first fill[i] are live.
	var qas, sbs []int32
	var fill []int
	var rings []uint8
	// ids is an open-addressed table of state ids (-1 empty) hashed on
	// the state's fields; it is at most half full.
	ids := make([]int32, 2*packedStateCap)
	for i := range ids {
		ids[i] = -1
	}
	intern := func(qa, sb int32, ring []uint8) (int32, bool) {
		h := uint32(2166136261)
		for _, v := range [3]uint32{uint32(qa), uint32(sb), uint32(len(ring))} {
			h = (h ^ v) * 16777619
		}
		for _, c := range ring {
			h = (h ^ uint32(c)) * 16777619
		}
		for slot := h & uint32(len(ids)-1); ; slot = (slot + 1) & uint32(len(ids)-1) {
			id := ids[slot]
			if id < 0 {
				if len(qas) == packedStateCap {
					return 0, false
				}
				id = int32(len(qas))
				ids[slot] = id
				qas, sbs, fill = append(qas, qa), append(sbs, sb), append(fill, len(ring))
				rings = append(rings, ring...)
				rings = append(rings, make([]uint8, k-len(ring))...)
				return id, true
			}
			if qas[id] == qa && sbs[id] == sb && fill[id] == len(ring) &&
				string(rings[int(id)*k:int(id)*k+len(ring)]) == string(ring) {
				return id, true
			}
		}
	}
	start := int32(d.Start)
	intern(start, int32(te.Start), nil)
	nr := make([]uint8, 0, k)
	for i := 0; i < len(qas); i++ {
		if len(p.act)+nc > cap(p.act) {
			// Double by hand: append's 1.25× growth past 256 entries
			// would allocate several times the final table.
			p.act = slices.Grow(p.act, len(p.act)+nc)
			p.next = slices.Grow(p.next, len(p.next)+nc)
		}
		r := rings[i*k : i*k+fill[i]]
		for c := 0; c < nc; c++ {
			p.explored++
			sb := bt[int(sbs[i])*nc+c]
			qa := qas[i]
			act := SActContinue
			kept := r
			if len(r) == k {
				// A consumes the oldest delayed byte; the decision is the
				// pair-action word's for (q_A', s_B').
				kept = r[1:]
				q := int(d.Trans[int(qa)*nc+int(r[0])])
				qa = int32(q)
				switch {
				case m.IsDead(q):
					act = SActDead
				case d.IsFinal(q) && emitOK[sb][q>>6]&(1<<(q&63)) != 0:
					act = SActEmitBase + uint32(d.Rule(q))
					qa = start
				}
			}
			var to int32
			if act != SActDead {
				var ok bool
				nr = append(append(nr[:0], kept...), uint8(c))
				if to, ok = intern(qa, sb, nr); !ok {
					return p, false
				}
			}
			p.act = append(p.act, uint8(act))
			p.next = append(p.next, to)
		}
	}
	p.n = len(qas)
	return p, true
}

// minimize returns each state's block in the coarsest partition whose
// same-block states have, on every class, the same action and targets
// in the same block (Moore refinement; a dead action's target is
// ignored). Each round sorts the states by that signature — block, then
// action and target block per class — and splits the blocks where it
// changes; it stops at the first round that splits nothing. Blocks are
// numbered by first appearance in breadth-first order, so the start
// state is block 0.
func (p *product) minimize() (block []int32, blocks int) {
	n, nc := p.n, p.nc
	block = make([]int32, n)
	order := make([]int32, n)
	sorted := make([]int32, n) // block ids in sorted order
	// cmp orders two states by their signature under the current blocks.
	cmp := func(a, b int32) int {
		if d := block[a] - block[b]; d != 0 {
			return int(d)
		}
		for c := 0; c < nc; c++ {
			x, y := int(a)*nc+c, int(b)*nc+c
			if d := int(p.act[x]) - int(p.act[y]); d != 0 {
				return d
			}
			if uint32(p.act[x]) == SActDead {
				continue
			}
			if d := block[p.next[x]] - block[p.next[y]]; d != 0 {
				return int(d)
			}
		}
		return 0
	}
	blocks = 1
	for {
		for s := range order {
			order[s] = int32(s)
		}
		slices.SortFunc(order, cmp)
		id := int32(0)
		for i, s := range order {
			if i > 0 && cmp(order[i-1], s) != 0 {
				id++
			}
			sorted[s] = id
		}
		split := int(id)+1 != blocks
		blocks = int(id) + 1
		// Renumber by first appearance in state order (order is rebuilt
		// next round, so it holds the renumbering).
		renum := order[:blocks]
		for i := range renum {
			renum[i] = -1
		}
		next := int32(0)
		for s := range block {
			if renum[sorted[s]] < 0 {
				renum[sorted[s]] = next
				next++
			}
			block[s] = renum[sorted[s]]
		}
		if !split {
			return block, blocks
		}
	}
}

// buildPacked compiles a K ≥ 2 machine into the single-table layout of
// ModeSmall over the minimized product. It returns nil when the product
// passes packedStateCap, the rules do not fit the action byte, or the
// table exceeds the budget; explored is the construction's transition
// count either way.
func buildPacked(m *tokdfa.Machine, k int, te *tepath.Table, opts Options) (e *Engine, explored int) {
	if len(m.Grammar.Rules)+int(SActEmitBase) > 255 {
		return nil, 0
	}
	p, ok := buildProduct(m, k, te)
	if !ok {
		return nil, p.explored
	}
	block, n := p.minimize()
	nc := p.nc
	if n*nc*4+n*4+256 > opts.MaxTableBytes {
		return nil, p.explored
	}
	e = &Engine{Mode: ModeSmall, K: k, ClassOf: m.DFA.ClassOf, NumClasses: nc, packedStates: n, name: smallName(k)}
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
