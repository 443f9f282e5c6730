package bpe

import (
	"bytes"
	"math/rand"
	"testing"
)

// smallVocabs builds a battery of small vocabularies over a tiny
// alphabet: BPE-trained ones (the realistic case) and adversarial
// random rank tables (tokens with no merge derivation, rank
// inversions) that a hostile vocab file could contain.
func smallVocabs(t testing.TB, alphabet string) []*Vocab {
	t.Helper()
	var vocabs []*Vocab

	// Trained: random corpora over the alphabet at several merge counts.
	rng := rand.New(rand.NewSource(7))
	for _, merges := range []int{3, 8, 20} {
		corpus := make([]byte, 4096)
		for i := range corpus {
			corpus[i] = alphabet[rng.Intn(len(alphabet))]
		}
		v, err := Train(corpus, merges, TrainOptions{})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		vocabs = append(vocabs, v)
	}

	// Adversarial: byte tokens plus a random subset of short strings over
	// the alphabet in random rank order.
	var cands [][]byte
	var grow func(prefix []byte)
	grow = func(prefix []byte) {
		if len(prefix) >= 2 {
			cands = append(cands, append([]byte(nil), prefix...))
		}
		if len(prefix) == 4 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			grow(append(prefix, alphabet[i]))
		}
	}
	grow(nil)
	for trial := 0; trial < 12; trial++ {
		perm := rng.Perm(len(cands))
		tokens := make([][]byte, 256, 256+10)
		for b := 0; b < 256; b++ {
			tokens[b] = []byte{byte(b)}
		}
		n := 3 + rng.Intn(8)
		for _, i := range perm[:n] {
			tokens = append(tokens, cands[i])
		}
		v, err := NewVocab(tokens)
		if err != nil {
			t.Fatalf("NewVocab: %v", err)
		}
		vocabs = append(vocabs, v)
	}
	return vocabs
}

// forAllStrings calls fn for every string over alphabet of length 1..maxLen.
func forAllStrings(alphabet string, maxLen int, fn func(s []byte)) {
	s := make([]byte, 0, maxLen)
	var rec func()
	rec = func() {
		if len(s) > 0 {
			fn(s)
		}
		if len(s) == maxLen {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			s = append(s, alphabet[i])
			rec()
			s = s[:len(s)-1]
		}
	}
	rec()
}

// segmentations enumerates every segmentation of s into vocab tokens.
func segmentations(v *Vocab, s []byte, fn func(seg []int)) {
	seg := make([]int, 0, len(s))
	var rec func(i int)
	rec = func(i int) {
		if i == len(s) {
			fn(seg)
			return
		}
		max := len(s) - i
		if max > v.MaxTokenLen() {
			max = v.MaxTokenLen()
		}
		for l := 1; l <= max; l++ {
			if r, ok := v.Rank(s[i : i+l]); ok {
				seg = append(seg, r)
				rec(i + l)
				seg = seg[:len(seg)-1]
			}
		}
	}
	rec(0)
}

func segEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLocalValidityTheorem exhaustively validates the property the whole
// greedy-DFA serving path rests on: a segmentation of s into vocabulary
// tokens is the BPE encoding of s iff every adjacent token pair is
// Compatible (singleton iff the token SelfEncodes). Checked for every
// string up to length 9 over a two-letter alphabet and length 6 over a
// three-letter alphabet, against both trained and adversarial
// vocabularies, with the naive merge loop as ground truth.
func TestLocalValidityTheorem(t *testing.T) {
	cases := []struct {
		alphabet string
		maxLen   int
	}{
		{"ab", 9},
		{"abc", 6},
	}
	for _, tc := range cases {
		for vi, v := range smallVocabs(t, tc.alphabet) {
			forAllStrings(tc.alphabet, tc.maxLen, func(s []byte) {
				ref := v.encodePieceSlow(s)
				segmentations(v, s, func(seg []int) {
					got := v.SegmentationValid(seg)
					want := segEqual(seg, ref)
					if got != want {
						t.Fatalf("vocab %d (%s): s=%q seg=%v: SegmentationValid=%v, reference=%v (ref seg %v)",
							vi, tc.alphabet, s, seg, got, want, ref)
					}
				})
			})
		}
	}
}

// TestEncodePieceMatchesSlow pins the heap-based encoder to the naive
// merge loop, exhaustively on short strings and randomly on longer ones.
func TestEncodePieceMatchesSlow(t *testing.T) {
	for _, alphabet := range []string{"ab", "abc"} {
		for vi, v := range smallVocabs(t, alphabet) {
			forAllStrings(alphabet, 8, func(s []byte) {
				fast := v.EncodePiece(nil, s)
				slow := v.encodePieceSlow(s)
				if !segEqual(fast, slow) {
					t.Fatalf("vocab %d: s=%q: fast=%v slow=%v", vi, s, fast, slow)
				}
			})
			rng := rand.New(rand.NewSource(int64(vi)))
			for trial := 0; trial < 200; trial++ {
				s := make([]byte, 1+rng.Intn(80))
				for i := range s {
					if rng.Intn(8) == 0 {
						s[i] = byte(rng.Intn(256)) // arbitrary bytes too
					} else {
						s[i] = alphabet[rng.Intn(len(alphabet))]
					}
				}
				fast := v.EncodePiece(nil, s)
				slow := v.encodePieceSlow(s)
				if !segEqual(fast, slow) {
					t.Fatalf("vocab %d: s=%q: fast=%v slow=%v", vi, s, fast, slow)
				}
			}
		}
	}
}

// TestEncodePieceScratchReuse runs many pieces through one scratch and
// checks results match fresh-scratch encoding (state fully reset).
func TestEncodePieceScratchReuse(t *testing.T) {
	v, err := Train([]byte("the cat sat on the mat, the cat sat on the mat"), 20, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sc encodeScratch
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		s := make([]byte, rng.Intn(40))
		for i := range s {
			s[i] = "the catsonm, "[rng.Intn(13)]
		}
		got := v.encodePiece(nil, s, &sc)
		want := v.EncodePiece(nil, s)
		if !segEqual(got, want) {
			t.Fatalf("trial %d: s=%q: reused=%v fresh=%v", trial, s, got, want)
		}
	}
}

// TestEncodeRoundTrip checks decode(encode(s)) == s on arbitrary bytes.
func TestEncodeRoundTrip(t *testing.T) {
	v, err := Train([]byte("hello world, hello world; héllo wörld"), 30, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		s := make([]byte, rng.Intn(120))
		rng.Read(s)
		enc := v.EncodePiece(nil, s)
		var back []byte
		for _, r := range enc {
			back = append(back, v.Token(r)...)
		}
		if !bytes.Equal(back, s) {
			t.Fatalf("round trip: %q -> %v -> %q", s, enc, back)
		}
	}
}
