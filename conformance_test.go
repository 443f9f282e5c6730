package streamtok_test

import (
	"strings"
	"testing"

	"streamtok/internal/conformance"
)

// TestConformance runs the conformance matrix (internal/conformance):
// every source — catalog grammars, ad-hoc rules, machine files, a
// trained vocabulary — on every engine path it compiles to, at
// chunkings 1, 7, 4096 and whole, against Definition 1 (or
// Vocab.Encode); then the same streams through the shard scheduler,
// and the daemon's refusal modes. The coverage guard fails when a
// catalog or corpus grammar or the vocabulary reports an engine mode no
// row ran, or a path the code can select went unexercised.
func TestConformance(t *testing.T) {
	exercised := map[string]bool{}
	ran := 0
	t.Run("stream", func(t *testing.T) {
		for _, src := range conformance.Sources() {
			t.Run(src.Name, func(t *testing.T) {
				ran++
				conformance.Stream(t, src, func(mode string) { exercised[mode] = true })
			})
		}
	})
	t.Run("scheduler", conformance.Scheduler)
	t.Run("serving", conformance.Serving)
	t.Run("coverage", func(t *testing.T) {
		if ran < len(conformance.Sources()) {
			t.Skip("stream rows filtered out")
		}
		conformance.Coverage(t, exercised)
	})
}

// TestCheckpointResumeDifferential is the matrix's resume axis: for
// every source and engine path (subtests source/setting), cursors at
// every chunk boundary resume on the source's engines in turn, its own
// first, and must finish exactly like the oracle.
func TestCheckpointResumeDifferential(t *testing.T) {
	for _, src := range conformance.Sources() {
		for _, e := range src.Engines(t) {
			t.Run(src.Name+"/"+e.Setting, func(t *testing.T) {
				conformance.Resume(t, src, e)
			})
		}
	}
}

// FuzzConformance is the one differential fuzz target: any source of
// the matrix, any input, any two alternating chunk sizes and a
// checkpoint/resume cut, on every engine path (see conformance.Fuzz).
func FuzzConformance(f *testing.F) {
	vocab := conformance.FuzzPick("vocab")
	f.Add(conformance.FuzzPick("ints-spaces"), uint8(1), uint8(3), uint8(4), []byte("123 456 78"))
	f.Add(conformance.FuzzPick("floats"), uint8(3), uint8(1), uint8(2), []byte("3.14 . 5"))
	f.Add(conformance.FuzzPick("csv-stream"), uint8(1), uint8(5), uint8(3), []byte(`a,"b""c",d`))
	f.Add(conformance.FuzzPick("pretok-min"), uint8(7), uint8(2), uint8(9), []byte("it's 12 cafés\n\tdone"))
	f.Add(conformance.FuzzPick("json"), uint8(4), uint8(9), uint8(20), []byte(`{"a": [1, 2.5e3, true], "b": null}`))
	f.Add(vocab, uint8(1), uint8(5), uint8(17), []byte("Hello, world! It's 42 degrees outside."))
	f.Add(vocab, uint8(64), uint8(2), uint8(30), []byte(" exvocion inverting disscribs Outdictions vertions"))
	f.Add(conformance.FuzzPick("scientific"), uint8(7), uint8(7), uint8(200), []byte("12e+3 x"))
	f.Add(conformance.FuzzPick("keywords"), uint8(64), uint8(2), uint8(0), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa b"))
	f.Add(conformance.FuzzPick("comments"), uint8(3), uint8(17), uint8(0), []byte("/*ab*/ xxxxxxxxxxxxxxxxxxxxxxxx\n"))
	for _, in := range []string{
		"café 日本語 🙂",
		"for i in range(10):\n    print(i)\n",
		"\xff\xc2\x80\x20\x27\x73",
		"       \t\n\r  ",
		strings.Repeat("the ", 64),
		// Greedy misfits: the longest-token scan fails the validity check.
		" Semistructment intermitment encedment injectment",
		" convocness dejectness subcedions autovener antimem",
		// Cache churn: over 1000 distinct near-maximal pieces.
		distinctWords(1200, 50),
	} {
		f.Add(vocab, uint8(1), uint8(5), uint8(128), []byte(in))
	}
	f.Fuzz(conformance.Fuzz)
}

// distinctWords is n distinct words of wordLen letters, space-separated:
// word i spells i in base 16 with the letters a–p, padded with q.
func distinctWords(n, wordLen int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		w := []byte{}
		for v := i; ; v /= 16 {
			w = append(w, byte('a'+v%16))
			if v < 16 {
				break
			}
		}
		sb.Write(w)
		sb.WriteString(strings.Repeat("q", wordLen-len(w)) + " ")
	}
	return sb.String()
}
