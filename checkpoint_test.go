package streamtok_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"streamtok"
	"streamtok/internal/machinefile"
	"streamtok/internal/workload"
)

// checkpointFormats are the bounded catalog grammars with a workload
// generator — the differential matrix for resumable streams.
var checkpointFormats = []string{"json", "csv", "tsv", "xml", "yaml", "fasta", "dns", "log"}

func compileCatalog(t *testing.T, name string, opts streamtok.Options) *streamtok.Tokenizer {
	t.Helper()
	g, err := streamtok.CatalogGrammar(name)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.NewWithOptions(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// feedChunks pushes input through s in fixed-size chunks, appending
// emitted tokens to *out and verifying every emitted text against the
// token's absolute offsets into the original input.
func feedChunks(t *testing.T, s *streamtok.Streamer, input, full []byte, chunk int, out *[]streamtok.Token) {
	t.Helper()
	emit := func(tk streamtok.Token, text []byte) {
		if tk.Start < 0 || tk.End > len(full) || !bytes.Equal(text, full[tk.Start:tk.End]) {
			t.Fatalf("token %+v text %q disagrees with input offsets", tk, text)
		}
		*out = append(*out, tk)
	}
	for off := 0; off < len(input); off += chunk {
		end := off + chunk
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[off:end], emit)
	}
}

// checkpointSource is one row of the resumable-stream matrices: a
// tokenizer builder and an input for it. ranks, set for a vocabulary,
// is Vocab.Encode of the input — the ranks the tokens must carry.
type checkpointSource struct {
	name    string
	compile func(t *testing.T, opts streamtok.Options) *streamtok.Tokenizer
	input   []byte
	ranks   []int
}

func catalogSource(t *testing.T, name string, seed int64, n int) checkpointSource {
	t.Helper()
	input, err := workload.Generate(name, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return checkpointSource{
		name: name,
		compile: func(t *testing.T, opts streamtok.Options) *streamtok.Tokenizer {
			return compileCatalog(t, name, opts)
		},
		input: input,
	}
}

// vocabSource is the trained test vocabulary over a prompt input of n
// bytes.
func vocabSource(t *testing.T, seed int64, n int) checkpointSource {
	t.Helper()
	v := trainTestVocab(t)
	input := workload.Prompts(seed, n)
	return checkpointSource{
		name: "vocab",
		compile: func(t *testing.T, opts streamtok.Options) *streamtok.Tokenizer {
			t.Helper()
			tok, err := streamtok.Compile(v, opts)
			if err != nil {
				t.Fatal(err)
			}
			return tok
		},
		input: input,
		ranks: v.Encode(nil, input),
	}
}

// checkRanks verifies a vocabulary source's tokens carry the reference
// encoding's ranks.
func (src checkpointSource) checkRanks(t *testing.T, toks []streamtok.Token) {
	t.Helper()
	if src.ranks == nil {
		return
	}
	if len(toks) != len(src.ranks) {
		t.Fatalf("%d tokens, Vocab.Encode gives %d ranks", len(toks), len(src.ranks))
	}
	for i, tk := range toks {
		if tk.Rule != src.ranks[i] {
			t.Fatalf("token %d: rank %d, Vocab.Encode gives %d", i, tk.Rule, src.ranks[i])
		}
	}
}

// TestCheckpointResumeDifferential is the tentpole correctness test:
// for every bounded catalog grammar and a trained vocabulary, under
// both the fused and the split engines, a single pass feeds the input
// in small chunks and takes a cursor at every chunk boundary (proving
// Checkpoint does not perturb the live stream), then every cursor is
// resumed on a second tokenizer of the same build and driven to EOF.
// Each resumed stream must emit exactly the reference tokens the
// suspended stream had not yet emitted, with identical offsets, texts,
// and Rest; vocabulary tokens must also carry Vocab.Encode's ranks.
func TestCheckpointResumeDifferential(t *testing.T) {
	var sources []checkpointSource
	for _, name := range checkpointFormats {
		sources = append(sources, catalogSource(t, name, 7, 600))
	}
	sources = append(sources, vocabSource(t, 7, 3<<10))
	for _, src := range sources {
		for _, mode := range []struct {
			label string
			opts  streamtok.Options
		}{
			{"fused", streamtok.Options{}},
			{"split", streamtok.Options{DisableFused: true}},
		} {
			t.Run(src.name+"/"+mode.label, func(t *testing.T) {
				input := src.input
				tokA := src.compile(t, mode.opts)
				tokB := src.compile(t, mode.opts)
				wantToks, wantRest := tokA.TokenizeBytes(input)
				src.checkRanks(t, wantToks)

				const chunk = 3
				// Single pass: cursor at every chunk boundary.
				type mark struct {
					cursor  []byte
					emitted int // tokens emitted before the boundary
				}
				var marks []mark
				var live []streamtok.Token
				s := tokA.AcquireStreamer()
				for off := 0; off < len(input); off += chunk {
					end := off + chunk
					if end > len(input) {
						end = len(input)
					}
					cur, err := s.Checkpoint()
					if err != nil {
						t.Fatalf("checkpoint at %d: %v", off, err)
					}
					marks = append(marks, mark{cur, len(live)})
					feedChunks(t, s, input[off:end], input, chunk, &live)
				}
				if rest := s.Close(func(tk streamtok.Token, text []byte) {
					live = append(live, tk)
				}); rest != wantRest {
					t.Fatalf("checkpointed pass rest %d, want %d", rest, wantRest)
				}
				tokA.ReleaseStreamer(s)
				if len(live) != len(wantToks) {
					t.Fatalf("checkpointed pass emitted %d tokens, want %d (Checkpoint perturbed the stream)",
						len(live), len(wantToks))
				}
				for i := range wantToks {
					if live[i] != wantToks[i] {
						t.Fatalf("checkpointed pass token %d = %+v, want %+v", i, live[i], wantToks[i])
					}
				}

				// Resume every cursor and drive it to EOF.
				for mi, m := range marks {
					boundary := mi * chunk
					r, err := streamtok.Resume(tokB, m.cursor)
					if err != nil {
						t.Fatalf("resume cursor at byte %d: %v", boundary, err)
					}
					var suffix []streamtok.Token
					feedChunks(t, r, input[boundary:], input, 64, &suffix)
					rest := r.Close(func(tk streamtok.Token, text []byte) {
						suffix = append(suffix, tk)
					})
					tokB.ReleaseStreamer(r)
					if rest != wantRest {
						t.Fatalf("cursor at %d: rest %d, want %d", boundary, rest, wantRest)
					}
					want := wantToks[m.emitted:]
					if len(suffix) != len(want) {
						t.Fatalf("cursor at %d: resumed stream emitted %d tokens, want %d",
							boundary, len(suffix), len(want))
					}
					for i := range want {
						if suffix[i] != want[i] {
							t.Fatalf("cursor at %d: token %d = %+v, want %+v",
								boundary, i, suffix[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestResumeCrossEngine: a cursor taken under the fused engine resumes
// on a split-engine build of the same source (and vice versa), for a
// grammar and for a vocabulary (whose pretokenizer is what the options
// switch). The cursor carries byte-level state only, so it is portable
// across engine representations; the QA cross-check is skipped when
// modes differ.
func TestResumeCrossEngine(t *testing.T) {
	for _, src := range []checkpointSource{
		catalogSource(t, "json", 11, 800),
		vocabSource(t, 11, 3<<10),
	} {
		fused := src.compile(t, streamtok.Options{})
		split := src.compile(t, streamtok.Options{DisableFused: true})
		if fused.Engine().Mode == split.Engine().Mode {
			t.Run(src.name, func(t *testing.T) {
				t.Skipf("%s compiles to %q under both option sets; cross-engine resume not exercisable", src.name, fused.Engine().Mode)
			})
			continue
		}
		input := src.input
		wantToks, wantRest := fused.TokenizeBytes(input)
		src.checkRanks(t, wantToks)

		for _, dir := range []struct {
			label      string
			from, onto *streamtok.Tokenizer
		}{
			{"fused->split", fused, split},
			{"split->fused", split, fused},
		} {
			name := dir.label
			if src.ranks != nil {
				name = src.name + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				cut := 413 // mid-token on purpose: any byte offset is checkpointable
				s := dir.from.AcquireStreamer()
				var prefix []streamtok.Token
				feedChunks(t, s, input[:cut], input, 7, &prefix)
				cur, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				dir.from.ReleaseStreamer(s)

				r, err := streamtok.Resume(dir.onto, cur)
				if err != nil {
					t.Fatal(err)
				}
				got := append([]streamtok.Token(nil), prefix...)
				feedChunks(t, r, input[cut:], input, 7, &got)
				rest := r.Close(func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
				dir.onto.ReleaseStreamer(r)
				if rest != wantRest || len(got) != len(wantToks) {
					t.Fatalf("rest %d tokens %d, want %d/%d", rest, len(got), wantRest, len(wantToks))
				}
				for i := range wantToks {
					if got[i] != wantToks[i] {
						t.Fatalf("token %d = %+v, want %+v", i, got[i], wantToks[i])
					}
				}
			})
		}
	}
}

// TestResumeWrongGrammar: the cert-hash binding refuses a cursor taken
// under a different grammar.
func TestResumeWrongGrammar(t *testing.T) {
	jsonTok := compileCatalog(t, "json", streamtok.Options{})
	csvTok := compileCatalog(t, "csv", streamtok.Options{})
	s := jsonTok.AcquireStreamer()
	s.Feed([]byte(`{"a": 1`), nil)
	cur, err := s.Checkpoint()
	jsonTok.ReleaseStreamer(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamtok.Resume(csvTok, cur); !errors.Is(err, streamtok.ErrCursor) || !errors.Is(err, streamtok.ErrCertMismatch) {
		t.Fatalf("wrong-grammar resume error = %v, want ErrCursor wrapping ErrCertMismatch", err)
	}
	// Same grammar, fresh compile: accepted.
	jsonTok2 := compileCatalog(t, "json", streamtok.Options{})
	r, err := streamtok.Resume(jsonTok2, cur)
	if err != nil {
		t.Fatalf("same-grammar resume refused: %v", err)
	}
	jsonTok2.ReleaseStreamer(r)
}

// TestCursorTampering: every truncation and every single-bit flip of a
// valid cursor is refused (CRC32 detects all single-bit errors), as is
// garbage. Refusals wrap both ErrCursor and machinefile.ErrFormat.
func TestCursorTampering(t *testing.T) {
	tok := compileCatalog(t, "json", streamtok.Options{})
	s := tok.AcquireStreamer()
	s.Feed([]byte(`{"key": [1, 2.5e-3, "str`), nil)
	cur, err := s.Checkpoint()
	tok.ReleaseStreamer(s)
	if err != nil {
		t.Fatal(err)
	}

	refuse := func(blob []byte, what string) {
		t.Helper()
		if _, err := streamtok.Resume(tok, blob); !errors.Is(err, streamtok.ErrCursor) || !errors.Is(err, machinefile.ErrFormat) {
			t.Fatalf("%s: error = %v, want ErrCursor wrapping machinefile.ErrFormat", what, err)
		}
	}

	for n := 0; n < len(cur); n++ {
		refuse(cur[:n], fmt.Sprintf("truncation to %d bytes", n))
	}
	for i := 0; i < len(cur); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), cur...)
			flipped[i] ^= 1 << bit
			refuse(flipped, fmt.Sprintf("bit flip at byte %d bit %d", i, bit))
		}
	}
	refuse(nil, "nil blob")
	refuse(bytes.Repeat([]byte{0xAA}, 64), "garbage")
}

// TestCheckpointAtEOF: a stream suspended after its entire input (but
// before Close) resumes and drains the tail correctly.
func TestCheckpointAtEOF(t *testing.T) {
	tok := compileCatalog(t, "csv", streamtok.Options{})
	input, err := workload.Generate("csv", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	wantToks, wantRest := tok.TokenizeBytes(input)

	s := tok.AcquireStreamer()
	var prefix []streamtok.Token
	feedChunks(t, s, input, input, 5, &prefix)
	cur, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tok.ReleaseStreamer(s)

	r, err := streamtok.Resume(tok, cur)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]streamtok.Token(nil), prefix...)
	rest := r.Close(func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
	tok.ReleaseStreamer(r)
	if rest != wantRest || len(got) != len(wantToks) {
		t.Fatalf("rest %d tokens %d, want %d/%d", rest, len(got), wantRest, len(wantToks))
	}
	for i := range wantToks {
		if got[i] != wantToks[i] {
			t.Fatalf("token %d = %+v, want %+v", i, got[i], wantToks[i])
		}
	}
}

// TestCheckpointStopped: stopped and released streams refuse Checkpoint.
func TestCheckpointStopped(t *testing.T) {
	tok := compileCatalog(t, "json", streamtok.Options{})
	s := tok.NewStreamer()
	s.Feed([]byte(`[1]`), nil)
	s.Close(nil)
	if _, err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint of a closed stream should fail")
	}
	s2 := tok.AcquireStreamer()
	tok.ReleaseStreamer(s2)
	if _, err := s2.Checkpoint(); err == nil {
		t.Error("Checkpoint of a released streamer should fail")
	}
}

// TestResumeCounters: a resumed stream's own Stats continue from the
// suspension point, and the tokenizer aggregate counts each byte and
// token exactly once across a same-process suspend/resume cycle.
func TestResumeCounters(t *testing.T) {
	tok := compileCatalog(t, "log", streamtok.Options{})
	input, err := workload.Generate("log", 9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wantToks, _ := tok.TokenizeBytes(input)
	// TokenizeBytes runs through the pooled streamer path and folds into
	// the aggregate; snapshot the baseline to measure only the cycle.
	base := tok.AggregateStats()

	cut := len(input) / 2
	s := tok.AcquireStreamer()
	s.Feed(input[:cut], nil)
	cur, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tok.ReleaseStreamer(s) // suspended segment folds its share here

	r, err := streamtok.Resume(tok, cur)
	if err != nil {
		t.Fatal(err)
	}
	r.Feed(input[cut:], nil)
	r.Close(nil)

	// Per-stream view is cumulative across the suspension.
	st := r.Stats()
	if st.BytesIn != uint64(len(input)) {
		t.Errorf("resumed stream BytesIn = %d, want %d (cursor counters not adopted)", st.BytesIn, len(input))
	}
	if st.TokensOut != uint64(len(wantToks)) {
		t.Errorf("resumed stream TokensOut = %d, want %d", st.TokensOut, len(wantToks))
	}
	tok.ReleaseStreamer(r)

	// Aggregate counts the cycle once: the suspended segment folded
	// [0,cut) and the resumed stream folds only its delta.
	agg := tok.AggregateStats()
	if got := agg.BytesIn - base.BytesIn; got != uint64(len(input)) {
		t.Errorf("aggregate BytesIn delta = %d, want %d (suspend/resume double-counted)", got, len(input))
	}
	if got := agg.TokensOut - base.TokensOut; got != uint64(len(wantToks)) {
		t.Errorf("aggregate TokensOut delta = %d, want %d", got, len(wantToks))
	}
	if got := agg.Streams - base.Streams; got != 2 {
		t.Errorf("aggregate Streams delta = %d, want 2 (each segment counts)", got)
	}
}
