package core_test

import (
	"math/rand"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
)

// TestFusedEngineSelected pins the mode auto-selection: the data
// formats must actually get the fused engine (this is the tentpole's
// default path), the split constructor must never have it, and the
// run-heavy formats must end up with accel states.
func TestFusedEngineSelected(t *testing.T) {
	for _, spec := range grammars.DataFormats() {
		m := spec.Machine()
		res := analysis.Analyze(m)
		if !res.Bounded() {
			t.Fatalf("%s: expected bounded", spec.Name)
		}
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !tok.Fused() {
			t.Errorf("%s: fused engine not selected (mode %s)", spec.Name, tok.EngineMode())
		}
		if tok.AccelStates() == 0 {
			t.Errorf("%s: no accel states detected", spec.Name)
		}
		split, err := core.NewWithKBudget(m, res.MaxTND, tepath.Limits{}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if split.Fused() || split.AccelStates() != 0 {
			t.Errorf("%s: split constructor produced a fused engine", spec.Name)
		}
		noacc, err := core.NewNoAccelWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !noacc.Fused() || noacc.AccelStates() != 0 {
			t.Errorf("%s: NoAccel variant wrong (fused=%v accel=%d)",
				spec.Name, noacc.Fused(), noacc.AccelStates())
		}
	}
}

// TestFusedLazyFallback: when the TeDFA goes lazy the fused engine must
// bow out (it needs the eager powerstate space), and tokenization must
// still match the reference.
func TestFusedLazyFallback(t *testing.T) {
	c := testutil.GrammarCase{Rules: []string{`a{0,12}b`, `a`}, Alphabet: []byte("ab")}
	m := c.Compile(false)
	tok, err := core.NewWithK(m, 12, tepath.Limits{MaxDFAStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tok.Fused() {
		t.Fatalf("fused engine selected over a lazy TeDFA (mode %s)", tok.EngineMode())
	}
	if tok.EngineMode() != "split-general-lazy" {
		t.Fatalf("mode = %s, want split-general-lazy", tok.EngineMode())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		in := testutil.RandomInput(rng, c.Alphabet, rng.Intn(200))
		want, wantRest := reference.Tokens(m, in)
		got, _, rest := collectStream(tok, in, 7)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("lazy fallback diverged on %q", in)
		}
	}
}
