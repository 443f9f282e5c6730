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
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// packedSource is a K ≥ 2 grammar with inputs for the packed-engine
// differentials.
type packedSource struct {
	name   string
	m      *tokdfa.Machine
	inputs [][]byte
}

// packedSources returns the grammars the packed K=2 engine serves: the
// tsv and yaml catalog formats and the BPE pretokenizer (via its
// testutil corpus copy). Each gets, n bytes at most: a workload sample,
// splices of 1–40-byte slices of it (odd token boundaries that still
// tokenize), random inputs over an alphabet (which mostly die early),
// and run-heavy synthetics.
func packedSources(t *testing.T, n int) []packedSource {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	var out []packedSource
	add := func(name string, m *tokdfa.Machine, sample, alphabet []byte) {
		sample = sample[:min(n, len(sample))]
		src := packedSource{name: name, m: m, inputs: [][]byte{sample}}
		for trial := 0; trial < 6; trial++ {
			var in []byte
			for len(in) < n-40 {
				at := rng.Intn(len(sample))
				in = append(in, sample[at:min(at+1+rng.Intn(40), len(sample))]...)
			}
			src.inputs = append(src.inputs, in)
		}
		for trial := 0; trial < 4; trial++ {
			src.inputs = append(src.inputs, testutil.RandomInput(rng, alphabet, rng.Intn(n)))
		}
		for _, in := range runHeavyInputs(alphabet) {
			src.inputs = append(src.inputs, in[:min(n, len(in))])
		}
		out = append(out, src)
	}
	for _, name := range []string{"tsv", "yaml"} {
		spec, err := grammars.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sample, err := workload.Generate(name, 28, n)
		if err != nil {
			t.Fatal(err)
		}
		add(name, spec.Machine(), sample, []byte("ab1 \t\n:-#\"'{}[],"))
	}
	for _, c := range testutil.Corpus() {
		if c.Name == "pretok" {
			add(c.Name, c.Compile(true), workload.Prompts(28, n), c.Alphabet)
		}
	}
	return out
}

// mustK builds a tokenizer at the machine's analyzed K with the given
// fused budget (0 default, -1 split).
func mustK(t *testing.T, m *tokdfa.Machine, budget int) *core.Tokenizer {
	t.Helper()
	res := analysis.Analyze(m)
	if !res.Bounded() {
		t.Fatal("unbounded grammar")
	}
	tok, err := core.NewWithKBudget(m, res.MaxTND, tepath.Limits{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestPackedEngineSelection pins which grammars the packed product
// serves: tsv, yaml and the pretokenizer pack, while json, xml,
// sql-inserts and the 1k/10k-rule keyword grammars pass the state cap
// and keep the pair-action engine.
func TestPackedEngineSelection(t *testing.T) {
	for _, src := range packedSources(t, 64) {
		tok := mustK(t, src.m, 0)
		if tok.EngineMode() != "fused-k2" || tok.PackedStates() == 0 {
			t.Errorf("%s: mode %s, %d packed states; want fused-k2", src.name, tok.EngineMode(), tok.PackedStates())
		}
	}
	general := map[string]*tokdfa.Machine{}
	for _, name := range []string{"json", "xml", "sql-inserts"} {
		spec, err := grammars.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		general[name] = spec.Machine()
	}
	for _, n := range []int{1000, 10000} {
		if n == 10000 && testing.Short() {
			continue
		}
		rules, err := workload.BigGrammarRules(n)
		if err != nil {
			t.Fatal(err)
		}
		general[rules[0]] = tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true})
	}
	for name, m := range general {
		tok := mustK(t, m, 0)
		if tok.EngineMode() != "fused-general" || tok.PackedStates() != 0 {
			t.Errorf("%.20s: mode %s, %d packed states; want fused-general", name, tok.EngineMode(), tok.PackedStates())
		}
	}
}

// streamOf tokenizes input on tok at the given chunk size (0 = whole),
// returning tokens with their texts and the Close rest.
func streamOf(tok *core.Tokenizer, input []byte, chunk int) ([]token.Token, [][]byte, int) {
	if chunk <= 0 {
		chunk = max(len(input), 1)
	}
	return collectStream(tok, input, chunk)
}

// TestPackedMatchesSplitAndReference: the packed engine's streams —
// tokens, texts and Close's rest — equal the split engine's and the
// Definition 1 reference at chunkings 1, 7, 4096 and whole.
func TestPackedMatchesSplitAndReference(t *testing.T) {
	for _, src := range packedSources(t, 3<<10) {
		packed, split := mustK(t, src.m, 0), mustK(t, src.m, -1)
		for _, in := range src.inputs {
			want, wantRest := reference.Tokens(src.m, in)
			for _, chunk := range []int{1, 7, 4096, 0} {
				for mode, tok := range map[string]*core.Tokenizer{"packed": packed, "split": split} {
					got, texts, rest := streamOf(tok, in, chunk)
					if !reference.Equal(got, want) || rest != wantRest {
						t.Fatalf("%s [%s, chunk %d] on %q:\n got  %v rest %d\n want %v rest %d",
							src.name, mode, chunk, in, got, rest, want, wantRest)
					}
					for i, tk := range got {
						if !bytes.Equal(texts[i], in[tk.Start:tk.End]) {
							t.Fatalf("%s [%s, chunk %d]: token %d text %q", src.name, mode, chunk, i, texts[i])
						}
					}
				}
			}
		}
	}
}

// TestPackedCheckpointEveryBoundary suspends a stream at every chunk
// boundary and resumes it on the other engine (packed→split,
// split→packed) and on the packed engine itself with the recorded A
// state enforced; each resumed stream must finish exactly like the
// reference, Close included.
func TestPackedCheckpointEveryBoundary(t *testing.T) {
	for _, src := range packedSources(t, 400) {
		packed, split := mustK(t, src.m, 0), mustK(t, src.m, -1)
		for _, in := range src.inputs[:3] {
			want, wantRest := reference.Tokens(src.m, in)
			for _, chunk := range []int{1, 7, 4096, 0} {
				step := chunk
				if step <= 0 {
					step = max(len(in), 1)
				}
				for _, dir := range []struct {
					label      string
					from, onto *core.Tokenizer
					checkQA    bool
				}{
					{"packed->split", packed, split, false},
					{"split->packed", split, packed, false},
					{"packed->packed", packed, packed, true},
				} {
					for cut := step; cut <= len(in); cut += step {
						var got []token.Token
						emit := func(tk token.Token, _ []byte) { got = append(got, tk) }
						s := dir.from.NewStreamer()
						for off := 0; off < cut; off += step {
							s.Feed(in[off:min(off+step, cut)], emit)
						}
						if s.Stopped() {
							break
						}
						cs, err := s.CheckpointState()
						if err != nil {
							t.Fatal(err)
						}
						s.Discard()
						cs.CheckQA = dir.checkQA
						r := dir.onto.NewStreamer()
						if err := r.Restore(cs); err != nil {
							t.Fatalf("%s %s chunk %d cut %d: %v", src.name, dir.label, chunk, cut, err)
						}
						for off := cut; off < len(in); off += step {
							r.Feed(in[off:min(off+step, len(in))], emit)
						}
						rest := r.Close(emit)
						if !reference.Equal(got, want) || rest != wantRest {
							t.Fatalf("%s %s chunk %d cut %d on %q:\n got  %v rest %d\n want %v rest %d",
								src.name, dir.label, chunk, cut, in, got, rest, want, wantRest)
						}
					}
				}
			}
		}
	}
}
