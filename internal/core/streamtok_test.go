package core_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

func buildTokenizer(t *testing.T, c testutil.GrammarCase) (*core.Tokenizer, *tokdfa.Machine, int) {
	t.Helper()
	m := c.Compile(false)
	res := analysis.Analyze(m)
	if !res.Bounded() {
		return nil, m, -1
	}
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		t.Fatalf("%s: NewWithK: %v", c.Name, err)
	}
	return tok, m, res.MaxTND
}

// collectStream tokenizes input through a Streamer fed in chunks of size
// chunk, returning tokens, emitted texts, and the rest offset.
func collectStream(tok *core.Tokenizer, input []byte, chunk int) ([]token.Token, [][]byte, int) {
	s := tok.NewStreamer()
	var toks []token.Token
	var texts [][]byte
	emit := func(tk token.Token, text []byte) {
		toks = append(toks, tk)
		texts = append(texts, append([]byte(nil), text...))
	}
	for i := 0; i < len(input); i += chunk {
		end := i + chunk
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[i:end], emit)
	}
	rest := s.Close(emit)
	return toks, texts, rest
}

func checkAgainstReference(t *testing.T, name string, m *tokdfa.Machine, tok *core.Tokenizer, input []byte) {
	t.Helper()
	want, wantRest := reference.Tokens(m, input)
	for _, chunk := range testutil.ChunkSizes {
		got, texts, rest := collectStream(tok, input, chunk)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("%s (chunk %d) on %q:\n got  %v rest %d\n want %v rest %d",
				name, chunk, input, got, rest, want, wantRest)
		}
		for i, tk := range got {
			if !bytes.Equal(texts[i], input[tk.Start:tk.End]) {
				t.Fatalf("%s (chunk %d): token %d text %q != input[%d:%d] %q",
					name, chunk, i, texts[i], tk.Start, tk.End, input[tk.Start:tk.End])
			}
		}
	}
}

// TestStreamTokRandomGrammars is the main property test: random grammars,
// random inputs, StreamTok must equal the executable specification
// whenever the analysis says the grammar is bounded.
func TestStreamTokRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounded := 0
	for trial := 0; trial < 400; trial++ {
		g := testutil.RandomGrammar(rng)
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		bounded++
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatalf("grammar %v: %v", g, err)
		}
		for i := 0; i < 10; i++ {
			in := testutil.RandomInput(rng, []byte("abcx"), rng.Intn(80))
			checkAgainstReference(t, g.String(), m, tok, in)
		}
	}
	if bounded < 50 {
		t.Fatalf("only %d bounded grammars generated; generator too skewed", bounded)
	}
}

// TestStreamTokOverestimatedK: the algorithm must stay correct when built
// with any upper bound on the true max-TND, not just the exact value.
func TestStreamTokOverestimatedK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		for _, extra := range []int{1, 2, 5} {
			tok, err := core.NewWithK(m, res.MaxTND+extra, tepath.Limits{})
			if err != nil {
				t.Fatalf("%s K+%d: %v", c.Name, extra, err)
			}
			for i := 0; i < 10; i++ {
				in := testutil.RandomInput(rng, c.Alphabet, rng.Intn(64))
				checkAgainstReference(t, c.Name, m, tok, in)
			}
		}
	}
}

// TestUnboundedRejected: New must refuse grammars with infinite max-TND.
func TestUnboundedRejected(t *testing.T) {
	m := testutil.GrammarCase{Rules: []string{`a`, `b`, `(a|b)*c`}}.Compile(false)
	_, _, err := core.New(m, tepath.Limits{})
	var ub *core.UnboundedError
	if err == nil {
		t.Fatal("New accepted an unbounded grammar")
	}
	if !errorsAs(err, &ub) {
		t.Fatalf("want UnboundedError, got %T %v", err, err)
	}
}

func errorsAs(err error, target **core.UnboundedError) bool {
	ub, ok := err.(*core.UnboundedError)
	if ok {
		*target = ub
	}
	return ok
}

// TestTokenizeReader checks the io.Reader driver across buffer sizes,
// including a reader that returns tiny reads.
func TestTokenizeReader(t *testing.T) {
	c := testutil.Corpus()[3] // scientific, TND 3
	tok, m, _ := buildTokenizer(t, c)
	input := []byte("12e+3 456 7E9 1e 2")
	want, wantRest := reference.Tokens(m, input)
	for _, buf := range []int{1, 2, 3, 17, 4096} {
		var got []token.Token
		rest, err := tok.Tokenize(bytes.NewReader(input), buf, func(tk token.Token, _ []byte) {
			got = append(got, tk)
		})
		if err != nil {
			t.Fatalf("buf %d: %v", buf, err)
		}
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("buf %d: got %v rest %d, want %v rest %d", buf, got, rest, want, wantRest)
		}
	}
}

// TestNFACrossCheck validates the DFA pipeline against pure NFA
// simulation on small inputs.
func TestNFACrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range testutil.Corpus()[:8] {
		g := tokdfa.MustParseGrammar(c.Rules...)
		m := c.Compile(false)
		for i := 0; i < 10; i++ {
			in := testutil.RandomInput(rng, c.Alphabet, rng.Intn(12))
			a, ar := reference.Tokens(m, in)
			b, br := reference.TokensNFA(g, in)
			if !reference.Equal(a, b) || ar != br {
				t.Fatalf("%s on %q: DFA %v/%d vs NFA %v/%d", c.Name, in, a, ar, b, br)
			}
		}
	}
}

// TestChunkingInvarianceQuick uses testing/quick: for arbitrary inputs and
// chunk sizes, feeding the same bytes in different chunkings yields
// identical tokens — the Streamer's core invariant, checked without the
// O(n²) reference in the loop.
func TestChunkingInvarianceQuick(t *testing.T) {
	tok, m, _ := buildTokenizer(t, testutil.Corpus()[3]) // scientific, K=3
	_ = m
	f := func(input []byte, chunkSeed uint16) bool {
		want, wantRest := tok.TokenizeBytes(input)
		s := tok.NewStreamer()
		var got []token.Token
		collect := func(tk token.Token, _ []byte) { got = append(got, tk) }
		rng := rand.New(rand.NewSource(int64(chunkSeed)))
		for i := 0; i < len(input); {
			end := i + 1 + rng.Intn(9)
			if end > len(input) {
				end = len(input)
			}
			s.Feed(input[i:end], collect)
			i = end
		}
		rest := s.Close(collect)
		return rest == wantRest && reference.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
