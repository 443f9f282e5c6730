package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// TestLazyMatchesReference forces the lazy TeDFA and re-runs the
// differential test on bounded corpus grammars with K >= 2.
func TestLazyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() || res.MaxTND < 2 {
			continue
		}
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{MaxDFAStates: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if mode := tok.EngineMode(); mode != "split-general-lazy" {
			t.Fatalf("%s: mode %s, want split-general-lazy", c.Name, mode)
		}
		for i := 0; i < 30; i++ {
			in := testutil.RandomInput(rng, c.Alphabet, rng.Intn(128))
			checkAgainstReference(t, c.Name+"-lazy", m, tok, in)
		}
	}
}

// TestLazyOnExponentialFamily: StreamTok must handle r_k for large k via
// the lazy fallback (the eager TeDFA has 2^(k+1)-2 states), and still
// agree with the reference.
func TestLazyOnExponentialFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for _, k := range []int{24, 64, 128} {
		g := tokdfa.MustParseGrammar(fmt.Sprintf(`a{0,%d}b`, k), `a`)
		m := tokdfa.MustCompile(g, tokdfa.Options{Minimize: true})
		tok, err := core.NewWithK(m, k, tepath.Limits{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Mixed input with occasional b's.
		in := make([]byte, 4096)
		for i := range in {
			if rng.Intn(k) == 0 {
				in[i] = 'b'
			} else {
				in[i] = 'a'
			}
		}
		want, wantRest := reference.Tokens(m, in)
		var got []token.Token
		s := tok.NewStreamer()
		collect := func(tk token.Token, _ []byte) { got = append(got, tk) }
		s.Feed(in, collect)
		rest := s.Close(collect)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("k=%d: %d tokens rest %d, want %d tokens rest %d", k, len(got), rest, len(want), wantRest)
		}
	}
}
