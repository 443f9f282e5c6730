package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"streamtok/internal/core"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

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
