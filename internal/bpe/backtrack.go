package bpe

// The exact backtracking encoder: the scheme of the bpe crate of
// github/rust-gems, run on the vocab DFA with the local-validity
// predicates of the BPE-DFA construction as the pair test — the
// merge-tree walk of validity.go, which reads only immutable tables, so
// streams of one vocabulary share nothing mutable.
//
// The search walks the piece left to right keeping a stack of tokens.
// At each boundary it tries the longest vocabulary token that starts
// there (maximal munch on the vocab DFA), and failing that each
// shorter prefix token in turn (the prefix chain Vocab.next). A
// candidate is pushed when it is Compatible with the token below it;
// when no candidate fits, the boundary is marked dead and the search
// pops. A complete stack is certified by construction: every adjacent
// pair is locally valid, so by the local-validity theorem it IS the BPE
// encoding (a singleton must also self-encode). The first descent is
// the plain greedy scan, so a piece greedy gets right costs one scan
// and its pair checks, nothing more.
//
// Dead marks are sound because a certified stack is the BPE encoding of
// the prefix it covers: every certified path reaching a boundary ends
// in the same token, so failing from it once fails for all. The one
// exception is a stack of one token: it is certified only once a
// successor is pushed (a token compatible with a successor always
// self-encodes), so a failure there may be the first token's own fault
// and leaves the boundary unmarked. Nothing is lost: a first token that
// does self-encode is the only certified way to reach that boundary.
//
// Each boundary's candidates are tried at most once before it is
// marked dead, so the search is linear in the piece length times the
// deepest prefix chain. It still runs under a step budget linear in the
// piece length; a search that spends it, or finds nothing (possible
// only where a hostile rank table breaks the local-validity theorem),
// hands the piece to the exact merge loop.

// searchStepsPerByte is the search budget: candidate tokens tried per
// piece byte. Greedy-certified pieces take at most one per byte; on
// trained vocabularies backtracked ones stay within two.
const searchStepsPerByte = 4

// searchOutcome says how a search ended.
type searchOutcome uint8

const (
	searchGreedy      searchOutcome = iota // the first descent was certified
	searchBacktracked                      // certified after backtracking
	searchGaveUp                           // budget spent or nothing found: run the merge loop
)

// searchScratch is one stream's search state, reused across pieces so
// the miss path allocates nothing once the stack and bitfield have
// grown to the longest piece seen.
type searchScratch struct {
	seg  []int32  // the token stack: the segmentation so far
	dead []uint64 // bit p: no certified segmentation passes boundary p
}

// longestAt returns the rank of the longest vocabulary token that is a
// prefix of text (nonempty): maximal munch on the vocab DFA's sparse
// rows. The trie's dead state is its only state that is not
// co-accessible, so the scan stops there.
func (t *Tokenizer) longestAt(text []byte) int32 {
	sp, dead := t.vm.Sparse, t.vm.Dead
	last := -1
	q := sp.Start
	for _, b := range text {
		q = sp.Step(q, b)
		if q == dead {
			break
		}
		if sp.IsFinal(q) {
			last = sp.Rule(q)
		}
	}
	return int32(last)
}

// search looks for the certified BPE encoding of the multi-byte piece
// text. It returns the ranks (aliasing sc.seg, valid until the next
// search), how the search ended, and how many candidate tokens it
// tried. On searchGaveUp the ranks are meaningless.
func (t *Tokenizer) search(text []byte, sc *searchScratch) ([]int32, searchOutcome, int) {
	v := t.vocab
	next, lens := v.next, v.tokLen
	n := len(text)
	budget := t.stepsPerByte * n
	seg := sc.seg[:0]
	pos, steps := 0, 0
	greedy, marked := true, false
	tok := t.longestAt(text)
	for {
		// Try tok, then its ever-shorter prefix tokens, at pos.
		for ; tok >= 0; tok = next[tok] {
			steps++
			end := pos + int(lens[tok])
			var ok bool
			switch {
			case marked && end < n && sc.dead[end>>6]&(1<<(end&63)) != 0:
			case len(seg) > 0:
				ok = v.Compatible(int(seg[len(seg)-1]), int(tok))
			case end == n:
				ok = v.SelfEncodes(int(tok)) // the whole piece as one token
			default:
				ok = true // a first token is certified by its successor
			}
			if ok {
				break
			}
			greedy = false
		}
		if steps > budget {
			sc.seg = seg
			return seg, searchGaveUp, steps
		}
		if tok >= 0 {
			seg = append(seg, tok)
			pos += int(lens[tok])
			if pos == n {
				sc.seg = seg
				if greedy {
					return seg, searchGreedy, steps
				}
				return seg, searchBacktracked, steps
			}
			tok = t.longestAt(text[pos:])
			continue
		}
		// Dead end: no candidate extends the stack at pos.
		if len(seg) == 0 {
			sc.seg = seg
			return seg, searchGaveUp, steps
		}
		if len(seg) > 1 {
			if !marked {
				words := n>>6 + 1
				if cap(sc.dead) < words {
					sc.dead = make([]uint64, words)
				}
				sc.dead = sc.dead[:words]
				clear(sc.dead)
				marked = true
			}
			sc.dead[pos>>6] |= 1 << (pos & 63)
		}
		last := seg[len(seg)-1]
		seg = seg[:len(seg)-1]
		pos -= int(lens[last])
		tok = next[last]
	}
}
