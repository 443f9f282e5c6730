package bpe

import (
	"bytes"
	"math"
	"slices"
)

// Local validity from merge splits: the pair test of the BPE-DFA
// construction without running the merge loop, in the form the bpe
// crate of github/rust-gems implements it (is_valid_token_pair).
//
// NewVocab derives, in rank order, each multi-byte token's split: the
// pair (left, right) of lower-ranked tokens whose merge is the last
// step of the token's own encoding. The first candidate along the
// token's prefix chain whose parts rank below it, self-encode, and are
// a locally valid pair is it. The splits define an immutable table from
// pair to merged rank, and each token's merge tree.
//
// A pair (a, b) is then valid iff no merge across the a|b boundary
// fires before the merges that built a and b: walk down both merge
// trees, always undoing the later (higher-ranked) of the two tokens at
// the boundary, and reject as soon as the two tokens touching the
// boundary merge to a rank below the limit set by the merges undone so
// far. The walk is allocation-free and reads only immutable tables, so
// a Vocab needs no lock and no memo.
//
// The walk assumes every self-encoding token has a monotone split —
// multi-byte parents ranked below it — which holds for every trained vocabulary
// but not for a hostile rank table (say "abc" at rank 257 and "bc" at
// 258). NewVocab detects this: a multi-byte token without a monotone
// split must not self-encode, which the merge loop confirms token by
// token. A vocabulary that fails the check is marked inverted and
// answers Compatible with the exact merge loop on every call, and its
// selfEnc entries all come from the merge loop.

// tokenSplit is a token's merge split: its left and right parents, or
// the token itself twice for a token with no monotone split (single
// bytes, and multi-byte tokens that never self-encode).
type tokenSplit struct{ left, right int32 }

// noMerge is what pairTable.merged returns for a pair that merges to no
// token: above every rank, so it never undercuts a limit.
const noMerge = math.MaxInt32

// pairTable is an immutable open-addressed map from an adjacent token
// pair to the rank of the token their merge builds.
type pairTable struct {
	slots []pairSlot // power-of-two length, at most half full
	shift uint       // 64 - log2(len(slots)), for Fibonacci hashing
}

type pairSlot struct {
	key  uint64 // a<<32 | b, or emptyPair
	rank int32
}

// emptyPair marks a free slot: no rank reaches 2^32-1.
const emptyPair = ^uint64(0)

func newPairTable(pairs int) pairTable {
	bits := uint(1)
	for 1<<bits < 2*pairs {
		bits++
	}
	p := pairTable{slots: make([]pairSlot, 1<<bits), shift: 64 - bits}
	for i := range p.slots {
		p.slots[i].key = emptyPair
	}
	return p
}

func (p *pairTable) insert(a, b, rank int32) {
	k, mask := uint64(pkey(a, b)), uint64(len(p.slots)-1)
	i := (k * 0x9e3779b97f4a7c15) >> p.shift
	for p.slots[i].key != emptyPair {
		i = (i + 1) & mask
	}
	p.slots[i] = pairSlot{key: k, rank: rank}
}

// merged returns the rank of the token a and b merge into, or noMerge.
func (p *pairTable) merged(a, b int32) int32 {
	k, mask := uint64(pkey(a, b)), uint64(len(p.slots)-1)
	for i := (k * 0x9e3779b97f4a7c15) >> p.shift; ; i = (i + 1) & mask {
		switch p.slots[i].key {
		case k:
			return p.slots[i].rank
		case emptyPair:
			return noMerge
		}
	}
}

// deriveValidity fills the prefix chain, token lengths, merge splits,
// pair table and self-encoding flags, and decides whether the vocabulary
// is inverted. Called once by NewVocab, after tokens and ranks.
func (v *Vocab) deriveValidity() {
	n := len(v.tokens)
	v.tokLen = make([]uint16, n)
	v.split = make([]tokenSplit, n)
	v.selfEnc = make([]bool, n)
	v.next, _ = v.prefixChain()
	multi := 0
	for r, tok := range v.tokens {
		v.tokLen[r] = uint16(len(tok))
		v.split[r] = tokenSplit{int32(r), int32(r)}
		v.selfEnc[r] = len(tok) == 1 // bytes first: they may rank after their merges
		if len(tok) > 1 {
			multi++
		}
	}
	v.merged = newPairTable(multi)
	var unsplit []int32
	for r, tok := range v.tokens {
		id := int32(r)
		if len(tok) == 1 {
			continue
		}
		for a := v.next[r]; a >= 0; a = v.next[a] {
			rb, ok := v.ranks[string(tok[v.tokLen[a]:])]
			b := int32(rb)
			if ok && v.below(a, id) && v.below(b, id) && v.selfEnc[a] && v.selfEnc[b] && v.splitValid(a, b) {
				v.split[r] = tokenSplit{a, b}
				v.merged.insert(a, b, id)
				v.selfEnc[r] = true
				break
			}
		}
		if !v.selfEnc[r] {
			unsplit = append(unsplit, id)
		}
	}
	for _, r := range unsplit {
		if v.mergeLoopSelfEncodes(int(r)) {
			v.inverted = true
			break
		}
	}
	if v.inverted {
		for r := range v.tokens {
			v.selfEnc[r] = v.mergeLoopSelfEncodes(r)
		}
	}
}

// shortToken bounds the prefixes prefixChain looks up in the rank map:
// at most shortToken of them, of at most shortToken bytes each, per
// token.
const shortToken = 8

// prefixChain returns, for each of v's tokens, the rank of its longest
// proper prefix that is itself a token, or -1, in O(Σ token bytes) plus
// a comparison sort of the tokens longer than shortToken.
//
// A prefix token of at most shortToken bytes is found by looking the
// prefixes up in the rank map, longest first: a bounded cost per token,
// and on trained vocabularies, where nearly every token is short and
// extends its prefix by one byte, usually one lookup. Hashing every
// proper prefix of a long token that way would be quadratic in its
// length, so a longer prefix token is found by walking the long tokens
// in sorted order with a stack of the current token and its long prefix
// tokens. A prefix token of t sorts before t, and so does every token
// between them, which extends it, so it is still on the stack when t
// comes; popping the entries longer than t's common prefix with its
// predecessor leaves exactly t's. Each step of the walk compares one
// adjacent pair up to its common prefix and pushes and pops one token.
//
// probes counts the work outside the sort, bytes hashed or compared
// plus stack operations, for the tests that bound it.
func (v *Vocab) prefixChain() (next []int32, probes int) {
	next = make([]int32, len(v.tokens))
	var long []int32
	for r, tok := range v.tokens {
		next[r] = -1
		for l := min(len(tok)-1, shortToken); l > 0; l-- {
			probes += l
			if p, ok := v.ranks[string(tok[:l])]; ok {
				next[r] = int32(p)
				break
			}
		}
		if len(tok) > shortToken {
			long = append(long, int32(r))
		}
	}
	slices.SortFunc(long, func(a, b int32) int { return bytes.Compare(v.tokens[a], v.tokens[b]) })
	var stack []int32
	var prev []byte
	for _, r := range long {
		tok := v.tokens[r]
		lcp := 0
		for lcp < len(tok) && lcp < len(prev) && tok[lcp] == prev[lcp] {
			lcp++
		}
		probes += lcp + 1
		for len(stack) > 0 && len(v.tokens[stack[len(stack)-1]]) > lcp {
			stack = stack[:len(stack)-1]
			probes++
		}
		if len(stack) > 0 {
			next[r] = stack[len(stack)-1]
		}
		stack = append(stack, r)
		prev = tok
	}
	return next, probes
}

// below reports whether token p can be a parent of token r in a
// monotone split: it ranks below r, or is a single byte, which the walk
// never undoes, so its rank orders no merge.
func (v *Vocab) below(p, r int32) bool { return p < r || v.tokLen[p] == 1 }

// splitValid is the merge-tree walk: whether the pair (a, b) of
// self-encoding tokens survives the merge process on their
// concatenation. Exact on vocabularies that are not inverted.
func (v *Vocab) splitValid(a, b int32) bool {
	limit := int32(noMerge)
	for {
		if v.merged.merged(a, b) < limit {
			return false // a merge across the boundary fires first
		}
		// Undo the later merge. A tie between a cross merge and b's own
		// merge goes to the cross merge (leftmost), hence b+1.
		if a > b {
			limit = a
			if a = v.split[a].right; a == limit {
				limit = b + 1
				if b = v.split[b].left; b+1 == limit {
					return true // both sides are single tokens
				}
			}
		} else {
			limit = b + 1
			if b = v.split[b].left; b+1 == limit {
				limit = a
				if a = v.split[a].right; a == limit {
					return true
				}
			}
		}
	}
}

// mergeLoopSelfEncodes runs the merge loop on token r's bytes.
func (v *Vocab) mergeLoopSelfEncodes(r int) bool {
	enc := v.EncodePiece(nil, v.tokens[r])
	return len(enc) == 1 && enc[0] == r
}

// SelfEncodes reports whether token r's byte string re-encodes to the
// single token r. A multi-byte token fails this only when its own merge
// derivation is shadowed by a lower-ranked merge — such tokens are
// unreachable as singleton encodings.
func (v *Vocab) SelfEncodes(r int) bool { return v.selfEnc[r] }

// Compatible reports whether the adjacent token pair (a, b) is locally
// valid: the merge process on the concatenation of their byte strings
// stops at exactly [a, b]. By the local-validity theorem of the BPE-DFA
// construction, a segmentation into vocabulary tokens is THE BPE
// encoding of its concatenation iff every adjacent pair is compatible
// (and a singleton iff the token self-encodes) — the property the
// greedy DFA path checks to certify its output. It is the merge-tree
// walk, allocation-free, except on an inverted vocabulary, where it
// runs the merge loop on the pair.
func (v *Vocab) Compatible(a, b int) bool {
	if !v.selfEnc[a] || !v.selfEnc[b] {
		return false // a token in a valid pair self-encodes
	}
	if v.inverted {
		ta, tb := v.tokens[a], v.tokens[b]
		cat := make([]byte, 0, len(ta)+len(tb))
		cat = append(append(cat, ta...), tb...)
		enc := v.EncodePiece(nil, cat)
		return len(enc) == 2 && enc[0] == a && enc[1] == b
	}
	return v.splitValid(int32(a), int32(b))
}

// SegmentationValid reports whether the token sequence seg is the BPE
// encoding of its concatenation, using only the local-validity
// predicates (never the merge loop on the full string).
func (v *Vocab) SegmentationValid(seg []int) bool {
	if len(seg) == 0 {
		return true
	}
	if len(seg) == 1 {
		return v.SelfEncodes(seg[0])
	}
	for i := 0; i+1 < len(seg); i++ {
		if !v.Compatible(seg[i], seg[i+1]) {
			return false
		}
	}
	return true
}
