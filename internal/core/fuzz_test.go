package core_test

import (
	"sync"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

var (
	fuzzOnce  sync.Once
	fuzzToks  []*core.Tokenizer
	fuzzMachs []*tokdfa.Machine
)

func fuzzSetup() {
	for _, c := range testutil.Corpus() {
		ms := []*tokdfa.Machine{c.Compile(false)}
		if c.Name == "pretok" {
			// Unminimized, the pretokenizer's product passes the packed
			// cap and serves fused-general; minimized, as bpe.Compile
			// builds it, it packs (fused-k2). Fuzz both.
			ms = append(ms, c.Compile(true))
		}
		for _, m := range ms {
			res := analysis.Analyze(m)
			if !res.Bounded() {
				continue
			}
			tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
			if err != nil {
				continue
			}
			fuzzToks = append(fuzzToks, tok)
			fuzzMachs = append(fuzzMachs, m)
		}
	}
}

// FuzzStreamTokDifferential fuzzes arbitrary inputs against the
// executable specification, across the bounded corpus grammars and a
// fuzzer-chosen chunking.
func FuzzStreamTokDifferential(f *testing.F) {
	f.Add(0, uint8(1), []byte("123 456"))
	f.Add(1, uint8(3), []byte("3.14 . 5"))
	f.Add(2, uint8(7), []byte("12e+3 x"))
	f.Add(3, uint8(64), []byte(`a,"b""c",d`))
	f.Fuzz(func(t *testing.T, pick int, chunk uint8, input []byte) {
		fuzzOnce.Do(fuzzSetup)
		if len(fuzzToks) == 0 {
			t.Skip("no bounded grammars")
		}
		if pick < 0 {
			pick = -pick
		}
		tok := fuzzToks[pick%len(fuzzToks)]
		m := fuzzMachs[pick%len(fuzzMachs)]
		step := int(chunk)
		if step == 0 {
			step = 1
		}
		want, wantRest := reference.Tokens(m, input)
		var got []token.Token
		s := tok.NewStreamer()
		collect := func(tk token.Token, _ []byte) { got = append(got, tk) }
		for i := 0; i < len(input); i += step {
			end := i + step
			if end > len(input) {
				end = len(input)
			}
			s.Feed(input[i:end], collect)
		}
		rest := s.Close(collect)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("grammar %d chunk %d on %q: got %v rest %d, want %v rest %d",
				pick%len(fuzzToks), step, input, got, rest, want, wantRest)
		}
	})
}

var (
	fuzzFusedOnce sync.Once
	fuzzSplitToks []*core.Tokenizer
	fuzzLazyToks  []*core.Tokenizer // nil where k < 2
)

func fuzzFusedSetup() {
	fuzzOnce.Do(fuzzSetup)
	for _, tok := range fuzzToks {
		split, err := core.NewWithKBudget(tok.Machine(), tok.K(), tepath.Limits{}, -1)
		if err != nil {
			split = tok
		}
		fuzzSplitToks = append(fuzzSplitToks, split)
		var lazy *core.Tokenizer
		if tok.K() >= 2 {
			if lazy, err = core.NewWithKBudget(tok.Machine(), tok.K(), tepath.Limits{MaxDFAStates: 1}, -1); err != nil {
				lazy = nil
			}
		}
		fuzzLazyToks = append(fuzzLazyToks, lazy)
	}
}

// FuzzFusedDifferential cross-checks the fused fast engine against the
// split engine, the lazily grown TeDFA (k ≥ 2 grammars), and the
// reference oracle under fuzzer-chosen alternating chunk boundaries
// (including 1-byte feeds), comparing tokens, emitted text bytes, and
// Rest.
func FuzzFusedDifferential(f *testing.F) {
	f.Add(0, uint8(1), uint8(1), []byte("123 456"))
	f.Add(3, uint8(1), uint8(5), []byte(`a,"b""c",d`))
	f.Add(5, uint8(64), uint8(2), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa b"))
	f.Add(7, uint8(3), uint8(17), []byte("/*ab*/ xxxxxxxxxxxxxxxxxxxxxxxx\n"))
	f.Fuzz(func(t *testing.T, pick int, c1, c2 uint8, input []byte) {
		fuzzFusedOnce.Do(fuzzFusedSetup)
		if len(fuzzToks) == 0 {
			t.Skip("no bounded grammars")
		}
		if pick < 0 {
			pick = -pick
		}
		pick %= len(fuzzToks)
		run := func(tok *core.Tokenizer) ([]token.Token, [][]byte, int) {
			var toks []token.Token
			var texts [][]byte
			s := tok.NewStreamer()
			collect := func(tk token.Token, text []byte) {
				toks = append(toks, tk)
				texts = append(texts, append([]byte(nil), text...))
			}
			steps := [2]int{int(c1), int(c2)}
			for i, which := 0, 0; i < len(input); which ^= 1 {
				step := steps[which]
				if step == 0 {
					step = 1
				}
				end := i + step
				if end > len(input) {
					end = len(input)
				}
				s.Feed(input[i:end], collect)
				i = end
			}
			rest := s.Close(collect)
			return toks, texts, rest
		}
		m := fuzzMachs[pick]
		want, wantRest := reference.Tokens(m, input)
		fGot, fTexts, fRest := run(fuzzToks[pick])
		sGot, sTexts, sRest := run(fuzzSplitToks[pick])
		if !reference.Equal(fGot, want) || fRest != wantRest {
			t.Fatalf("fused diverged from oracle on %q (grammar %d): got %v rest %d, want %v rest %d",
				input, pick, fGot, fRest, want, wantRest)
		}
		if !reference.Equal(sGot, want) || sRest != wantRest {
			t.Fatalf("split diverged from oracle on %q (grammar %d)", input, pick)
		}
		if lazy := fuzzLazyToks[pick]; lazy != nil {
			lGot, lTexts, lRest := run(lazy)
			if !reference.Equal(lGot, want) || lRest != wantRest {
				t.Fatalf("lazy diverged from oracle on %q (grammar %d)", input, pick)
			}
			for i := range lTexts {
				if string(lTexts[i]) != string(sTexts[i]) {
					t.Fatalf("token %d text mismatch: lazy %q split %q", i, lTexts[i], sTexts[i])
				}
			}
		}
		if len(fTexts) != len(sTexts) {
			t.Fatalf("text count mismatch: fused %d split %d", len(fTexts), len(sTexts))
		}
		for i := range fTexts {
			if string(fTexts[i]) != string(sTexts[i]) {
				t.Fatalf("token %d text mismatch: fused %q split %q", i, fTexts[i], sTexts[i])
			}
			if string(fTexts[i]) != string(input[fGot[i].Start:fGot[i].End]) {
				t.Fatalf("token %d text %q != input[%d:%d]", i, fTexts[i], fGot[i].Start, fGot[i].End)
			}
		}
	})
}
