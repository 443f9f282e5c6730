package bpe

import "container/heap"

// This file is the semantic ground truth of the package: the merge-loop
// encoder (the process every production BPE tokenizer implements) and
// the local-validity predicates of the BPE-DFA construction, which let
// the greedy DFA path certify its output against that ground truth
// without replaying the loop.
//
// The merge process: start from single bytes, repeatedly merge the
// adjacent part pair whose concatenation has the lowest rank (leftmost
// on ties), stop when no adjacent pair concatenates to a token.
// EncodePiece runs it in O(n log n) with a heap over candidate merges;
// encodePieceSlow is the line-for-line naive loop kept as an
// independent oracle the tests pin EncodePiece against.

// mergeCand is one candidate merge in the heap: merging the part
// starting at pos with its right neighbor yields the token rank.
// stamp guards staleness: a candidate is live only while the part at
// pos still has the width it had when the candidate was pushed.
type mergeCand struct {
	rank  int32
	pos   int32
	stamp int32 // width of the left part when pushed
}

// mergeHeap orders candidates by rank, then position (leftmost tie-break).
type mergeHeap []mergeCand

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].pos < h[j].pos
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeCand)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// encodeScratch holds the merge loop's working state so steady-state
// encoding performs no heap allocations. Not safe for concurrent use;
// each stream owns one.
type encodeScratch struct {
	next  []int32 // next[i] = start of the part after the one at i (piece len at the end)
	prev  []int32 // prev[i] = start of the part before the one at i (-1 at the start)
	cands mergeHeap
}

// EncodePiece appends the BPE encoding of piece to dst and returns it.
// Differential tests pin the DFA path to this function (and this
// function to the naive merge loop).
func (v *Vocab) EncodePiece(dst []int, piece []byte) []int {
	var sc encodeScratch
	return v.encodePiece(dst, piece, &sc)
}

func (v *Vocab) encodePiece(dst []int, piece []byte, sc *encodeScratch) []int {
	n := len(piece)
	if n == 0 {
		return dst
	}
	if n == 1 {
		r, _ := v.rankStr(string(piece)) // single bytes always present
		return append(dst, r)
	}
	next, prev := sc.next[:0], sc.prev[:0]
	for i := 0; i < n; i++ {
		next = append(next, int32(i+1))
		prev = append(prev, int32(i-1))
	}
	h := sc.cands[:0]
	for i := 0; i+1 < n; i++ {
		if r, ok := v.rankStr(string(piece[i : i+2])); ok {
			h = append(h, mergeCand{rank: int32(r), pos: int32(i), stamp: 1})
		}
	}
	heap.Init(&h)
	width := func(i int32) int32 { return next[i] - i }
	for len(h) > 0 {
		c := heap.Pop(&h).(mergeCand)
		i := c.pos
		// Stale if the left part changed width, was absorbed (prev == -2
		// marker via next mismatch), or its neighbor changed: re-derive
		// the candidate's token and compare.
		if prev[i] == -2 || width(i) != c.stamp {
			continue
		}
		j := next[i]
		if int(j) >= n {
			continue
		}
		r, ok := v.rankStr(string(piece[i:next[j]]))
		if !ok || int32(r) != c.rank {
			continue
		}
		// Merge parts i and j: part i widens to cover j.
		nj := next[j]
		next[i] = nj
		prev[j] = -2 // j is no longer a part start
		if int(nj) < n {
			prev[nj] = i
		}
		// New candidates with the widened part's neighbors.
		if p := prev[i]; p >= 0 {
			if pr, ok := v.rankStr(string(piece[p:next[i]])); ok {
				heap.Push(&h, mergeCand{rank: int32(pr), pos: p, stamp: width(p)})
			}
		}
		if int(nj) < n {
			if nr, ok := v.rankStr(string(piece[i:next[nj]])); ok {
				heap.Push(&h, mergeCand{rank: int32(nr), pos: i, stamp: width(i)})
			}
		}
	}
	for i := int32(0); int(i) < n; i = next[i] {
		r, ok := v.rankStr(string(piece[i:next[i]]))
		if !ok {
			// Unreachable for a complete vocabulary: every part is either
			// a merged token or a single byte.
			panic("bpe: merge loop produced a non-token part")
		}
		dst = append(dst, r)
	}
	sc.next, sc.prev, sc.cands = next[:0], prev[:0], h[:0]
	return dst
}

// Encode appends the reference BPE encoding of text to dst:
// pretokenize with the reference scanner, merge-loop encode each piece.
// This is the ground truth the streaming DFA path is differentially
// tested against end to end.
func (v *Vocab) Encode(dst []int, text []byte) []int {
	var sc encodeScratch
	ScanPieces(text, func(start, end int) {
		dst = v.encodePiece(dst, text[start:end], &sc)
	})
	return dst
}

// Decode appends the concatenated bytes of the ranks to dst.
func (v *Vocab) Decode(dst []byte, ranks []int) []byte {
	for _, r := range ranks {
		dst = append(dst, v.tokens[r]...)
	}
	return dst
}

// encodePieceSlow is the naive quadratic merge loop: scan all adjacent
// pairs, merge the leftmost lowest-ranked, repeat. It is the simplest
// possible statement of the BPE semantics; tests pin EncodePiece to it.
func (v *Vocab) encodePieceSlow(piece []byte) []int {
	if len(piece) == 0 {
		return nil
	}
	bounds := make([]int, 0, len(piece)+1)
	for i := 0; i <= len(piece); i++ {
		bounds = append(bounds, i)
	}
	for {
		best, bestRank := -1, int(^uint(0)>>1)
		for i := 0; i+2 < len(bounds); i++ {
			if r, ok := v.rankStr(string(piece[bounds[i]:bounds[i+2]])); ok && r < bestRank {
				best, bestRank = i, r
			}
		}
		if best < 0 {
			break
		}
		bounds = append(bounds[:best+1], bounds[best+2:]...)
	}
	out := make([]int, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		r, ok := v.rankStr(string(piece[bounds[i]:bounds[i+1]]))
		if !ok {
			panic("bpe: merge loop produced a non-token part")
		}
		out = append(out, r)
	}
	return out
}
