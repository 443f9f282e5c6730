package streamtok_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"streamtok"
)

// TestQuickstart is the README example.
func TestQuickstart(t *testing.T) {
	g, err := streamtok.ParseGrammar(`[0-9]+`, `[a-z]+`, `[ \t\n]+`)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	rest, err := tok.Tokenize(strings.NewReader("abc 123 de45"), 0,
		func(tk streamtok.Token, text []byte) {
			got = append(got, string(text))
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"abc", " ", "123", " ", "de", "45"}
	if rest != 12 || len(got) != len(want) {
		t.Fatalf("rest %d tokens %v", rest, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAnalyzeAPI checks the public analysis surface on the paper's
// Example 9 grammars.
func TestAnalyzeAPI(t *testing.T) {
	bounded := streamtok.MustParseGrammar(`[0-9]+([eE][+-]?[0-9]+)?`, `[ ]+`)
	a, err := streamtok.Analyze(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Bounded || a.MaxTND != 3 || a.TND() != "3" {
		t.Errorf("analysis %+v, want bounded max-TND 3", a)
	}
	if a.String() != fmt.Sprintf("max-TND 3 (NFA %d, DFA %d)", a.NFASize, a.DFASize) {
		t.Errorf("String() = %q", a.String())
	}
	unbounded := streamtok.MustParseGrammar(`[0-9]*0`, `[ ]+`)
	a, err = streamtok.Analyze(unbounded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bounded || a.TND() != "inf" {
		t.Errorf("analysis %+v, want unbounded", a)
	}
	if _, err := streamtok.New(unbounded); !errors.Is(err, streamtok.ErrUnbounded) {
		t.Errorf("New(unbounded) error = %v, want ErrUnbounded", err)
	}
}

// TestCatalogAPI: every bounded catalog grammar builds a Tokenizer and
// round-trips a streamer.
func TestCatalogAPI(t *testing.T) {
	names := streamtok.Catalog()
	if len(names) < 10 {
		t.Fatalf("catalog too small: %v", names)
	}
	g, err := streamtok.CatalogGrammar("json")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if tok.K() != 3 {
		t.Errorf("json K = %d, want 3", tok.K())
	}
	in := []byte(`{"a": [1, 2.5e-3], "b": "x"}`)
	toks, rest := tok.TokenizeBytes(in)
	if rest != len(in) || len(toks) == 0 {
		t.Fatalf("TokenizeBytes: %d tokens, rest %d", len(toks), rest)
	}
	if g.RuleName(toks[0].Rule) != "PUNCT" {
		t.Errorf("first token rule %q", g.RuleName(toks[0].Rule))
	}
	if _, err := streamtok.CatalogGrammar("nope"); err == nil {
		t.Error("CatalogGrammar(nope) should fail")
	}
}

// TestBaselinesAgree: the four public engines agree on a realistic input.
func TestBaselinesAgree(t *testing.T) {
	g := streamtok.MustParseGrammar(`[0-9]+(\.[0-9]+)?`, `[a-z]+`, `[ ,\n]+`)
	input := []byte("abc 12.5, xyz 7 0.25\nrest 99")

	want, wantRest, err := streamtok.ReferenceTokens(g, input)
	if err != nil {
		t.Fatal(err)
	}

	collect := func(run func(emit streamtok.EmitFunc) int) []streamtok.Token {
		var toks []streamtok.Token
		rest := run(func(tk streamtok.Token, _ []byte) { toks = append(toks, tk) })
		if rest != wantRest {
			t.Fatalf("rest %d, want %d", rest, wantRest)
		}
		return toks
	}

	st, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	flex, err := streamtok.NewFlexScanner(g)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := streamtok.NewRepsTokenizer(g)
	if err != nil {
		t.Fatal(err)
	}
	eo, err := streamtok.NewExtOracleTokenizer(g)
	if err != nil {
		t.Fatal(err)
	}

	results := map[string][]streamtok.Token{
		"streamtok": collect(func(e streamtok.EmitFunc) int {
			toks, rest := st.TokenizeBytes(input)
			for _, tk := range toks {
				e(tk, nil)
			}
			return rest
		}),
		"flex": collect(func(e streamtok.EmitFunc) int {
			rest, err := flex.Tokenize(bytes.NewReader(input), 8, e)
			if err != nil {
				t.Fatal(err)
			}
			return rest
		}),
		"flex-scan": collect(func(e streamtok.EmitFunc) int { return flex.ScanBytes(input, e) }),
		"reps":      collect(func(e streamtok.EmitFunc) int { return rp.TokenizeBytes(input, e) }),
		"extoracle": collect(func(e streamtok.EmitFunc) int { return eo.TokenizeBytes(input, e) }),
	}
	for name, got := range results {
		if len(got) != len(want) {
			t.Fatalf("%s: %d tokens, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: token %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

// TestStreamerPush: the push API across chunk boundaries.
func TestStreamerPush(t *testing.T) {
	tok, err := streamtok.New(streamtok.MustParseGrammar(`[0-9]+(\.[0-9]+)?`, `[ ]`))
	if err != nil {
		t.Fatal(err)
	}
	s := tok.NewStreamer()
	var texts []string
	emit := func(_ streamtok.Token, text []byte) { texts = append(texts, string(text)) }
	for _, b := range []byte("3.14 42") {
		s.Feed([]byte{b}, emit)
	}
	rest := s.Close(emit)
	if rest != 7 {
		t.Fatalf("rest %d", rest)
	}
	want := []string{"3.14", " ", "42"}
	if len(texts) != 3 || texts[0] != want[0] || texts[1] != want[1] || texts[2] != want[2] {
		t.Fatalf("tokens %v, want %v", texts, want)
	}
	if s.Stopped() != true {
		t.Error("Stopped should be true after Close")
	}
}

// TestParseErrors surface offsets and messages.
func TestParseErrors(t *testing.T) {
	if _, err := streamtok.ParseGrammar(`a(`); err == nil {
		t.Error("unclosed group should fail")
	}
	if _, err := streamtok.ParseGrammar(); err == nil {
		t.Error("empty grammar should fail")
	}
	if _, err := streamtok.ParseGrammar(`[z-a]`); err == nil {
		t.Error("bad range should fail")
	}
}

// TestSaveLoadCompiled: the compile-once/ship-tables flow round-trips.
func TestSaveLoadCompiled(t *testing.T) {
	g := streamtok.MustParseGrammar(`[0-9]+(\.[0-9]+)?`, `[ ]+`).Named("NUM", "WS")
	var buf bytes.Buffer
	if err := streamtok.SaveCompiled(g, &buf); err != nil {
		t.Fatal(err)
	}
	tok, g2, err := streamtok.LoadCompiled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.RuleName(0) != "NUM" || tok.K() != 2 {
		t.Errorf("loaded: rule %q K %d", g2.RuleName(0), tok.K())
	}
	input := []byte("3.14 42")
	toks, rest := tok.TokenizeBytes(input)
	want, wantRest, err := streamtok.ReferenceTokens(g, input)
	if err != nil {
		t.Fatal(err)
	}
	if rest != wantRest || len(toks) != len(want) {
		t.Fatalf("loaded machine tokenizes differently: %v vs %v", toks, want)
	}
	// Unbounded machines load the grammar but refuse a tokenizer.
	gu := streamtok.MustParseGrammar(`[0-9]*0`, `[ ]+`)
	buf.Reset()
	if err := streamtok.SaveCompiled(gu, &buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := streamtok.LoadCompiled(&buf); !errors.Is(err, streamtok.ErrUnbounded) {
		t.Errorf("LoadCompiled(unbounded): %v", err)
	}
}

// TestTokenizeParallelPublic: the public parallel API matches the
// sequential tokenizer.
func TestTokenizeParallelPublic(t *testing.T) {
	g, err := streamtok.CatalogGrammar("log")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("Jun 14 15:16:01 combo sshd[19939]: failure rhost=1.2.3.4\n"), 8000)
	want, wantRest := tok.TokenizeBytes(input)
	var got []streamtok.Token
	rest, stats := tok.TokenizeParallel(input, 4, func(tk streamtok.Token, _ []byte) {
		got = append(got, tk)
	})
	if rest != wantRest || len(got) != len(want) {
		t.Fatalf("parallel %d tokens rest %d, sequential %d rest %d (stats %+v)",
			len(got), rest, len(want), wantRest, stats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if stats.Segments == 0 {
		t.Error("expected parallel segments for a 170KB input")
	}
}

// TestEngineModeAPI: the public engine-selection knobs — New picks the
// fused engine for catalog grammars, a negative MaxFusedTableBytes keeps
// the split loops, and both produce identical token streams.
func TestEngineModeAPI(t *testing.T) {
	g, err := streamtok.CatalogGrammar("json")
	if err != nil {
		t.Fatal(err)
	}
	fusedTok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	splitTok, err := streamtok.NewWithOptions(g, streamtok.Options{Minimize: true, MaxFusedTableBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	fe, se := fusedTok.Engine(), splitTok.Engine()
	if !strings.HasPrefix(fe.Mode, "fused-") {
		t.Errorf("Engine().Mode = %q, want fused-*", fe.Mode)
	}
	if fe.AccelStates == 0 {
		t.Error("Engine().AccelStates = 0, want > 0 for json")
	}
	if !strings.HasPrefix(se.Mode, "split-") {
		t.Errorf("split Engine().Mode = %q, want split-*", se.Mode)
	}
	if se.AccelStates != 0 {
		t.Errorf("split Engine().AccelStates = %d, want 0", se.AccelStates)
	}
	if fe.TableBytes <= se.TableBytes {
		t.Errorf("fused TableBytes %d should exceed split %d", fe.TableBytes, se.TableBytes)
	}
	input := []byte(`{"alpha": [1, 2.5e3, "text"], "b": {"c": true}}`)
	ft, fr := fusedTok.TokenizeBytes(input)
	st, sr := splitTok.TokenizeBytes(input)
	if fr != sr || len(ft) != len(st) {
		t.Fatalf("fused (%d tokens, rest %d) vs split (%d tokens, rest %d)", len(ft), fr, len(st), sr)
	}
	for i := range ft {
		if ft[i] != st[i] {
			t.Errorf("token %d: fused %+v split %+v", i, ft[i], st[i])
		}
	}
}
