package streamtok_test

import (
	"bytes"
	"testing"

	"streamtok"
	"streamtok/internal/workload"
)

// TestAcquireReleasePublic: the pooled serving loop on the public API —
// acquired streamers start pristine, produce the same stream as fresh
// ones, and survive release/reacquire cycles.
func TestAcquireReleasePublic(t *testing.T) {
	tok, err := streamtok.New(streamtok.MustParseGrammar(`[0-9]+`, `[a-z]+`, `[ ]+`))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("ab 12 cd 34 ef")
	want, wantRest := tok.TokenizeBytes(input)
	for round := 0; round < 3; round++ {
		s := tok.AcquireStreamer()
		var got []streamtok.Token
		s.Feed(input, func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
		rest := s.Close(func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
		tok.ReleaseStreamer(s)
		if rest != wantRest || len(got) != len(want) {
			t.Fatalf("round %d: %d tokens rest %d, want %d rest %d", round, len(got), rest, len(want), wantRest)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d token %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
	// Double release and release of nil are harmless no-ops.
	s := tok.AcquireStreamer()
	tok.ReleaseStreamer(s)
	tok.ReleaseStreamer(s)
	tok.ReleaseStreamer(nil)
}

// TestBatchPublic: FeedBatch/CloseBatch deliver the same tokens as the
// per-token emit path, and Reset reuses the streamer for a new stream.
func TestBatchPublic(t *testing.T) {
	tok, err := streamtok.New(streamtok.MustParseGrammar(`[0-9]+`, `[ ]+`))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("12 345 6 789")
	want, wantRest := tok.TokenizeBytes(input)
	s := tok.AcquireStreamer()
	defer tok.ReleaseStreamer(s)
	for round := 0; round < 2; round++ {
		var got []streamtok.Token
		sink := func(batch []streamtok.Token) { got = append(got, batch...) }
		s.FeedBatch(input[:5], sink)
		s.FeedBatch(input[5:], sink)
		rest := s.CloseBatch(sink)
		if rest != wantRest || len(got) != len(want) {
			t.Fatalf("round %d: %d tokens rest %d, want %d rest %d", round, len(got), rest, len(want), wantRest)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d token %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
		if s.Rest() != wantRest {
			t.Fatalf("round %d: Rest() = %d, want %d", round, s.Rest(), wantRest)
		}
		s.Reset()
	}
}

// TestPublicAPIZeroAllocs gates the steady-state serving guarantee at
// the public API, where every source runs behind the one stream
// contract: for a catalog grammar and a trained vocabulary, a warm
// Tokenizer.Tokenize over an io.Reader and a warm
// AcquireStreamer/Feed/Close/ReleaseStreamer turnover allocate nothing.
func TestPublicAPIZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	v := trainTestVocab(t)
	for _, src := range []struct {
		name  string
		build func() (*streamtok.Tokenizer, error)
		input []byte
	}{
		{"json", func() (*streamtok.Tokenizer, error) {
			g, err := streamtok.CatalogGrammar("json")
			if err != nil {
				return nil, err
			}
			return streamtok.New(g)
		}, statsInput(t, "json", 16<<10)},
		{"vocab", func() (*streamtok.Tokenizer, error) {
			return streamtok.Compile(v, streamtok.Options{})
		}, workload.Prompts(31, 16<<10)},
	} {
		t.Run(src.name, func(t *testing.T) {
			tok, err := src.build()
			if err != nil {
				t.Fatal(err)
			}
			emit := func(streamtok.Token, []byte) {}
			rd := bytes.NewReader(nil)
			tokenize := func() {
				rd.Reset(src.input)
				if _, err := tok.Tokenize(rd, 0, emit); err != nil {
					t.Fatal(err)
				}
			}
			turn := func() {
				s := tok.AcquireStreamer()
				s.Feed(src.input, emit)
				s.Close(emit)
				tok.ReleaseStreamer(s)
			}
			for i := 0; i < 16; i++ {
				tokenize()
				turn()
			}
			if allocs := testing.AllocsPerRun(100, tokenize); allocs != 0 {
				t.Errorf("warm Tokenize allocates %.1f/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, turn); allocs != 0 {
				t.Errorf("warm streamer turnover allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
