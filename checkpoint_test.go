package streamtok_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"streamtok"
	"streamtok/internal/machinefile"
	"streamtok/internal/workload"
)

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

// TestResumeFusedGeneralCursor resumes cursors committed under
// testdata/cursors, written by builds that served tsv, yaml, json and
// xml from the retired pair-action engine (mode fused-general). Each was
// taken after the first 1500 bytes of workload.Generate(name, 7, 4096),
// fed in 100-byte chunks; the engine now serving the grammar must
// continue it exactly: the packed product for tsv and yaml (fused-k2)
// and json (fused-k3), the split Fig. 6 loop for xml. json and xml
// resume on the tokenizer loaded from their testdata/certcompat machine
// files, which were written under the pair-action engine too.
func TestResumeFusedGeneralCursor(t *testing.T) {
	const cut, chunk = 1500, 100
	for name, mode := range map[string]string{"tsv": "fused-k2", "yaml": "fused-k2", "json": "fused-k3", "xml": "split-general"} {
		t.Run(name, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "cursors", name+"-fused-general.cur"))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := machinefile.DecodeCursor(blob)
			if err != nil {
				t.Fatal(err)
			}
			var tok *streamtok.Tokenizer
			if name == "json" || name == "xml" {
				data, err := os.ReadFile(filepath.Join("testdata", "certcompat", name+".mach"))
				if err != nil {
					t.Fatal(err)
				}
				if tok, _, err = streamtok.LoadCompiled(bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
				if !tok.Certificate().Recertified {
					t.Errorf("%s.mach: engine half not recertified", name)
				}
			} else {
				tok = compileCatalog(t, name, streamtok.Options{Minimize: true})
			}
			if cur.EngineMode != "fused-general" || tok.Engine().Mode != mode {
				t.Fatalf("cursor mode %s, engine %s; want fused-general onto %s", cur.EngineMode, tok.Engine().Mode, mode)
			}
			input, err := workload.Generate(name, 7, 4096)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRest := tok.TokenizeBytes(input)
			var got []streamtok.Token
			for _, tk := range want {
				if tk.End <= int(cur.Boundary) {
					got = append(got, tk)
				}
			}
			r, err := streamtok.Resume(tok, blob)
			if err != nil {
				t.Fatal(err)
			}
			feedChunks(t, r, input[cut:], input, chunk, &got)
			rest := r.Close(func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
			tok.ReleaseStreamer(r)
			if rest != wantRest || len(got) != len(want) {
				t.Fatalf("rest %d tokens %d, want %d/%d", rest, len(got), wantRest, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("token %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
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
