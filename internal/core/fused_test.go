package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// engineSet builds the three engine variants for one machine: the
// default (fused when it fits), the split ablation baseline, and the
// fused engine with accel states disabled.
func engineSet(t *testing.T, m *tokdfa.Machine, k int) map[string]*core.Tokenizer {
	t.Helper()
	out := map[string]*core.Tokenizer{}
	var err error
	if out["auto"], err = core.NewWithK(m, k, tepath.Limits{}); err != nil {
		t.Fatalf("NewWithK: %v", err)
	}
	if out["split"], err = core.NewWithKBudget(m, k, tepath.Limits{}, -1); err != nil {
		t.Fatalf("NewWithKBudget(-1): %v", err)
	}
	if out["noaccel"], err = core.NewNoAccelWithK(m, k, tepath.Limits{}); err != nil {
		t.Fatalf("NewNoAccelWithK: %v", err)
	}
	return out
}

// checkEnginesAgree requires every engine variant to produce the
// reference token stream — Start/End/Rule and text bytes — and rest
// offset, across all chunk sizes including 1-byte feeds.
func checkEnginesAgree(t *testing.T, name string, m *tokdfa.Machine, engines map[string]*core.Tokenizer, input []byte) {
	t.Helper()
	want, wantRest := reference.Tokens(m, input)
	for mode, tok := range engines {
		for _, chunk := range testutil.ChunkSizes {
			got, texts, rest := collectStream(tok, input, chunk)
			if !reference.Equal(got, want) || rest != wantRest {
				t.Fatalf("%s [%s, chunk %d] on %d bytes:\n got  %v rest %d\n want %v rest %d",
					name, mode, chunk, len(input), got, rest, want, wantRest)
			}
			for i, tk := range got {
				if !bytes.Equal(texts[i], input[tk.Start:tk.End]) {
					t.Fatalf("%s [%s, chunk %d]: token %d text %q != input[%d:%d] %q",
						name, mode, chunk, i, texts[i], tk.Start, tk.End, input[tk.Start:tk.End])
				}
			}
		}
	}
}

// runHeavyInputs builds inputs dominated by self-loop runs (the accel
// states' target shape): single-byte runs over the alphabet, and block
// runs glued together, at lengths that straddle chunk boundaries.
func runHeavyInputs(alphabet []byte) [][]byte {
	var out [][]byte
	for _, b := range alphabet {
		out = append(out, bytes.Repeat([]byte{b}, 300))
	}
	var mixed []byte
	for _, b := range alphabet {
		mixed = append(mixed, bytes.Repeat([]byte{b}, 97)...)
	}
	out = append(out, mixed)
	return out
}

// TestFusedMatchesSplitCatalog is the oracle matrix for the tentpole:
// on every bounded catalog grammar, the fused engine (with and without
// accel) must match the split engine and the Definition 1 reference
// byte-for-byte, on realistic workloads and run-heavy synthetics.
func TestFusedMatchesSplitCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range grammars.All() {
		m := spec.Machine()
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		engines := engineSet(t, m, res.MaxTND)
		t.Logf("%s: k=%d mode=%s accelStates=%d", spec.Name, res.MaxTND,
			engines["auto"].EngineMode(), engines["auto"].AccelStates())

		var inputs [][]byte
		if w, err := workload.Generate(spec.Name, 11, 16<<10); err == nil {
			inputs = append(inputs, w)
		}
		alphabet := []byte("abc019 \t\n,:\"{}<>/=.-_")
		inputs = append(inputs, runHeavyInputs(alphabet)...)
		for trial := 0; trial < 20; trial++ {
			inputs = append(inputs, testutil.RandomInput(rng, alphabet, rng.Intn(200)))
		}
		for _, in := range inputs {
			checkEnginesAgree(t, spec.Name, m, engines, in)
		}
	}
}

// TestFusedMatchesSplitCorpus covers the trickier testutil corpus
// (k=0 grammars, keyword ladders, ε-ish rules, byte extremes) the
// catalog formats do not reach.
func TestFusedMatchesSplitCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		engines := engineSet(t, m, res.MaxTND)
		var inputs [][]byte
		inputs = append(inputs, runHeavyInputs(c.Alphabet)...)
		for trial := 0; trial < 30; trial++ {
			inputs = append(inputs, testutil.RandomInput(rng, c.Alphabet, rng.Intn(160)))
		}
		for _, in := range inputs {
			checkEnginesAgree(t, c.Name, m, engines, in)
		}
	}
}

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
