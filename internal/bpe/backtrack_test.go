package bpe

import (
	"bytes"
	"testing"
)

// TestSearchMatchesSlow is the exhaustive differential of the
// backtracking encoder: every smallVocabs vocabulary, trained and
// adversarial, over every string up to the local-validity theorem's
// lengths, against the naive merge loop. Under the default budget the
// search alone must be exact (no merge loop); under a starved budget the
// merge-loop safety net must take over on some adversarial vocabulary
// and still emit the reference encoding.
func TestSearchMatchesSlow(t *testing.T) {
	cases := []struct {
		alphabet string
		maxLen   int
	}{
		{"ab", 9},
		{"abc", 6},
	}
	for _, tc := range cases {
		vocabs := smallVocabs(t, tc.alphabet)
		var backtracked, netFired uint64
		for _, steps := range []int{0, 1} {
			for vi, v := range vocabs {
				tok, err := Compile(v, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if steps != 0 {
					tok.stepsPerByte = steps
				}
				s := tok.NewStream()
				forAllStrings(tc.alphabet, tc.maxLen, func(in []byte) {
					if len(in) < 2 {
						return // single bytes never reach the search
					}
					got := s.encodeUncached(in)
					want := v.encodePieceSlow(in)
					if len(got) != len(want) {
						t.Fatalf("vocab %d budget %d: %q: got %v, reference %v", vi, steps, in, got, want)
					}
					for i := range want {
						if int(got[i]) != want[i] {
							t.Fatalf("vocab %d budget %d: %q: got %v, reference %v", vi, steps, in, got, want)
						}
					}
				})
				if steps == 0 {
					if s.c.BPEFallbacks != 0 {
						t.Errorf("%s vocab %d: %d pieces ran the merge loop under the default budget", tc.alphabet, vi, s.c.BPEFallbacks)
					}
					backtracked += s.c.BPEBacktracks
				} else if vi >= 3 { // smallVocabs: 3 trained, then adversarial
					netFired += s.c.BPEFallbacks
				}
			}
		}
		if backtracked == 0 {
			t.Errorf("%s: no piece needed backtracking; the differential is vacuous", tc.alphabet)
		}
		if netFired == 0 {
			t.Errorf("%s: the starved budget never sent an adversarial piece to the merge loop", tc.alphabet)
		}
	}
}

// TestSearchHostileLongPieces feeds single long pieces — a 1 MiB run of
// one letter, a 1 MiB alternating two-letter run — to the trained test
// vocabulary and to vocabularies whose rank tables make greedy wrong on
// exactly those runs: the search must certify them within its linear
// budget and match the merge loop.
func TestSearchHostileLongPieces(t *testing.T) {
	size := 1 << 20
	if raceEnabled {
		size = 64 << 10
	}
	runs := [][]byte{
		bytes.Repeat([]byte("a"), size),
		bytes.Repeat([]byte("ab"), size/2),
	}
	// Hostile vocabularies: "ba" outranks "ab", so greedy's "ab" pairs
	// are all wrong on an ab-run; and "aa" outranks the longer a-runs,
	// so the merge loop pairs a run up where greedy takes "aaaaa".
	toks := []*Tokenizer{testTok}
	for _, v := range []*Vocab{
		hostileVocab(t, "ba", "ab", "aba", "bab", "abab"),
		hostileVocab(t, "aa", "aaa", "aaaaa"),
	} {
		tok, err := Compile(v, Options{})
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
	for ti, tok := range toks {
		var sc searchScratch
		for _, in := range runs {
			got, how, steps := tok.search(in, &sc)
			if how == searchGaveUp {
				t.Fatalf("tokenizer %d, %q run: search gave up after %d steps (budget %d)",
					ti, in[:2], steps, tok.stepsPerByte*len(in))
			}
			if steps > tok.stepsPerByte*len(in) {
				t.Fatalf("tokenizer %d, %q run: %d steps over the budget %d", ti, in[:2], steps, tok.stepsPerByte*len(in))
			}
			want := tok.Vocab().EncodePiece(nil, in)
			if len(got) != len(want) {
				t.Fatalf("tokenizer %d, %q run: %d tokens, merge loop %d", ti, in[:2], len(got), len(want))
			}
			for i := range want {
				if int(got[i]) != want[i] {
					t.Fatalf("tokenizer %d, %q run: token %d rank %d, merge loop %d", ti, in[:2], i, got[i], want[i])
				}
			}
			t.Logf("tokenizer %d, %q run: %s, %.2f steps/byte", ti, in[:2],
				[]string{"greedy", "backtracked"}[how], float64(steps)/float64(len(in)))
		}
	}
}

// hostileVocab builds the byte tokens plus extra, ranked in the order
// given.
func hostileVocab(t *testing.T, extra ...string) *Vocab {
	t.Helper()
	tokens := make([][]byte, 256, 256+len(extra))
	for b := range tokens {
		tokens[b] = []byte{byte(b)}
	}
	for _, e := range extra {
		tokens = append(tokens, []byte(e))
	}
	v, err := NewVocab(tokens)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
