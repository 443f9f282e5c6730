package parallel_test

import (
	"bytes"
	"math/rand"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/parallel"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

func tokenizer(t *testing.T, m *tokdfa.Machine) *core.Tokenizer {
	t.Helper()
	res := analysis.Analyze(m)
	if !res.Bounded() {
		t.Fatal("unbounded grammar")
	}
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func runParallel(t *testing.T, tok *core.Tokenizer, input []byte, workers, minSeg int) ([]token.Token, int, parallel.Stats) {
	t.Helper()
	var got []token.Token
	rest, stats := parallel.Tokenize(tok, input, parallel.Options{Workers: workers, MinSegment: minSeg},
		func(tk token.Token, text []byte) {
			if tk.Start < 0 || tk.End > len(input) || string(text) != string(input[tk.Start:tk.End]) {
				t.Fatalf("bad token %+v text %q", tk, text)
			}
			got = append(got, tk)
		})
	return got, rest, stats
}

// TestParallelMatchesSequentialFormats: parallel output equals the
// reference on every data format, for several worker counts and segment
// sizes (including adversarially tiny segments).
func TestParallelMatchesSequentialFormats(t *testing.T) {
	for _, format := range []string{"json", "csv", "xml", "log", "fasta"} {
		spec, err := grammars.Lookup(format)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Machine()
		tok := tokenizer(t, m)
		input, err := workload.Generate(format, 5, 256*1024)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRest := reference.Tokens(m, input)
		for _, workers := range []int{2, 3, 8} {
			for _, minSeg := range []int{1, 4096} {
				got, rest, stats := runParallel(t, tok, input, workers, minSeg)
				if !reference.Equal(got, want) || rest != wantRest {
					t.Fatalf("%s workers=%d minSeg=%d: %d tokens rest %d, want %d rest %d (stats %+v)",
						format, workers, minSeg, len(got), rest, len(want), wantRest, stats)
				}
			}
		}
	}
}

// TestParallelSynchronizes: on self-synchronizing input (TSV — no quoted
// constructs), speculation should be adopted for most segments. CSV's
// quoted fields are the classic counterexample: a segment starting inside
// a quoted field misparses until the closing quote, so only correctness —
// not speedup — is guaranteed there.
func TestParallelSynchronizes(t *testing.T) {
	spec, err := grammars.Lookup("tsv")
	if err != nil {
		t.Fatal(err)
	}
	tok := tokenizer(t, spec.Machine())
	input, err := workload.Generate("tsv", 6, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	_, _, stats := runParallel(t, tok, input, 8, 1)
	if stats.Segments < 8 {
		t.Fatalf("only %d segments", stats.Segments)
	}
	if stats.Synchronized < stats.Segments/2 {
		t.Errorf("only %d/%d segments synchronized", stats.Synchronized, stats.Segments)
	}
	if stats.ReScanned > len(input)/4 {
		t.Errorf("re-scanned %d of %d bytes", stats.ReScanned, len(input))
	}
}

// TestParallelRandomGrammars: differential test over random bounded
// grammars and inputs with awkward segment boundaries.
func TestParallelRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	tried := 0
	for trial := 0; trial < 200 && tried < 60; trial++ {
		g := testutil.RandomGrammar(rng)
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		tried++
		in := testutil.RandomInput(rng, []byte("abcx"), 2000+rng.Intn(3000))
		want, wantRest := reference.Tokens(m, in)
		got, rest, _ := runParallel(t, tok, in, 2+rng.Intn(6), 1)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("grammar %v: %d tokens rest %d, want %d rest %d", g, len(got), rest, len(want), wantRest)
		}
	}
	if tried < 20 {
		t.Fatalf("too few bounded grammars: %d", tried)
	}
}

// TestParallelLongToken: a single token spanning several segments (FASTA
// sequence run) must still come out right.
func TestParallelLongToken(t *testing.T) {
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(`[A-Z]+`, `\n`), tokdfa.Options{})
	tok := tokenizer(t, m)
	input := make([]byte, 200*1024)
	for i := range input {
		input[i] = 'G'
	}
	input[len(input)-1] = '\n'
	want, wantRest := reference.Tokens(m, input)
	got, rest, _ := runParallel(t, tok, input, 8, 1)
	if !reference.Equal(got, want) || rest != wantRest {
		t.Fatalf("%d tokens rest %d, want %d rest %d", len(got), rest, len(want), wantRest)
	}
	if len(got) != 2 {
		t.Fatalf("want one giant token + newline, got %d", len(got))
	}
}

// TestParallelUntokenizable: the stop offset matches the sequential run
// wherever the bad byte falls relative to segment boundaries.
func TestParallelUntokenizable(t *testing.T) {
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(`[0-9]+`, `[ ]+`), tokdfa.Options{})
	tok := tokenizer(t, m)
	base := make([]byte, 100*1024)
	for i := range base {
		if i%4 == 3 {
			base[i] = ' '
		} else {
			base[i] = '5'
		}
	}
	for _, badAt := range []int{0, 1, 50 * 1024, 99 * 1024, len(base) - 1} {
		in := append([]byte(nil), base...)
		in[badAt] = 'x'
		want, wantRest := reference.Tokens(m, in)
		got, rest, _ := runParallel(t, tok, in, 8, 1)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("badAt=%d: %d tokens rest %d, want %d rest %d", badAt, len(got), rest, len(want), wantRest)
		}
	}
}

// TestSequentialFallback: tiny inputs bypass the parallel machinery but
// still report consistent stats — one (sequential) segment, nothing
// speculatively adopted, nothing re-scanned — and still count as a
// parallel run in the tokenizer's observability aggregate.
func TestSequentialFallback(t *testing.T) {
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(`[0-9]+`, `[ ]+`), tokdfa.Options{})
	tok := tokenizer(t, m)
	base := tok.AggregateCounters()
	for i, in := range [][]byte{[]byte("12 34"), []byte("7"), []byte(""), []byte(" ")} {
		got, rest, stats := runParallel(t, tok, in, 8, 64*1024)
		if stats.Segments != 1 || stats.Synchronized != 0 || stats.ReScanned != 0 {
			t.Errorf("input %d: fallback stats %+v, want {Segments:1}", i, stats)
		}
		want, wantRest := reference.Tokens(m, in)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("input %d: fallback output differs", i)
		}
	}
	after := tok.AggregateCounters()
	if runs := after.ParallelRuns - base.ParallelRuns; runs != 4 {
		t.Errorf("aggregate ParallelRuns delta = %d, want 4", runs)
	}
	if segs := after.ParallelSegments - base.ParallelSegments; segs != 4 {
		t.Errorf("aggregate ParallelSegments delta = %d, want 4", segs)
	}
	if after.ParallelSynced != base.ParallelSynced || after.ParallelReScanned != base.ParallelReScanned {
		t.Errorf("fallback runs changed Synced/ReScanned aggregates: %+v -> %+v", base, after)
	}
}

// TestStatsHonestOnDegradation pins the Segments accounting when a run
// degrades to sequential: the tiny-input fallback reports one segment,
// and a run cut mid-stitch (dead input, or a re-scan that consumes the
// rest of the input) reports only the segments it actually examined —
// not the full phase-1 segment count whose speculation it discarded.
func TestStatsHonestOnDegradation(t *testing.T) {
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(`[0-9]+`, `[a-z]+`, `[ ]+`), tokdfa.Options{})
	tok := tokenizer(t, m)

	t.Run("tiny input", func(t *testing.T) {
		input := []byte("ab 12 cd 34")
		got, rest, stats := runParallel(t, tok, input, 4, 64)
		want, wantRest := reference.Tokens(m, input)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("tokens/rest mismatch: %v %d", got, rest)
		}
		if stats.Segments != 1 || stats.Synchronized != 0 {
			t.Errorf("sequential fallback stats = %+v, want exactly 1 segment", stats)
		}
	})

	t.Run("dead stop mid-run", func(t *testing.T) {
		input := bytes.Repeat([]byte("ab 12 "), 171)
		input = input[:1024]
		input[30] = '?' // not in the grammar: the stream dies here
		want, wantRest := reference.Tokens(m, input)
		got, rest, stats := runParallel(t, tok, input, 4, 64)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("tokens/rest mismatch: rest %d want %d", rest, wantRest)
		}
		// 4 segments of 256 bytes were speculated; segment 0's adoption
		// stalled at the dead byte and segment 1's re-scan found the
		// stop, so segments 2 and 3 were never examined.
		if stats.Segments != 2 {
			t.Errorf("dead-stop run Segments = %d, want 2 (examined segments only); stats %+v", stats.Segments, stats)
		}
	})

	t.Run("giant token tail", func(t *testing.T) {
		input := append(bytes.Repeat([]byte("ab 12 "), 43), bytes.Repeat([]byte("z"), 1024-258)...)
		// One token spans segments 1-3: the stitcher re-scans it
		// sequentially to EOF and the later segments' speculation is
		// discarded.
		want, wantRest := reference.Tokens(m, input)
		got, rest, stats := runParallel(t, tok, input, 4, 64)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("tokens/rest mismatch: rest %d want %d", rest, wantRest)
		}
		if stats.Segments >= 4 {
			t.Errorf("giant-token run Segments = %d, want < 4 (re-scan consumed the tail); stats %+v", stats.Segments, stats)
		}
	})

	t.Run("reader mid-run shrink", func(t *testing.T) {
		input := bytes.Repeat([]byte("ab 12 "), 171)
		input = input[:1024]
		input[30] = '?'
		want, wantRest := reference.Tokens(m, input)
		var got []token.Token
		rest, stats, err := parallel.TokenizeReader(tok, bytes.NewReader(input),
			parallel.Options{Workers: 4, MinSegment: 64, Window: 512},
			func(tk token.Token, _ []byte) { got = append(got, tk) })
		if err != nil {
			t.Fatal(err)
		}
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("tokens/rest mismatch: rest %d want %d", rest, wantRest)
		}
		// Only the first 512-byte window was processed (the stream died
		// inside it), and within it only segments 0 and 1 were examined.
		if stats.Segments != 2 {
			t.Errorf("reader dead-stop Segments = %d, want 2; stats %+v", stats.Segments, stats)
		}
	})
}
