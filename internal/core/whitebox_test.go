package core

import (
	"bytes"
	"testing"

	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// TestCarryCapacityBounded is the regression for carry-buffer
// retention: a pathologically large token spanning many chunks must
// not pin its backing array after it is emitted — the stream would
// otherwise hold megabytes for the rest of its (possibly unbounded)
// lifetime.
func TestCarryCapacityBounded(t *testing.T) {
	g := tokdfa.MustParseGrammar(`a+`, `b+`)
	m, err := tokdfa.Compile(g, tokdfa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	build := map[string]func(*tokdfa.Machine, int, tepath.Limits) (*Tokenizer, error){
		"fused": NewWithK,
		"split": func(m *tokdfa.Machine, k int, l tepath.Limits) (*Tokenizer, error) {
			return NewWithKBudget(m, k, l, -1)
		},
	}
	for name, mk := range build {
		tok, err := mk(m, 1, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		s := tok.NewStreamer()
		emitted := 0
		count := func(token.Token, []byte) { emitted++ }
		// A 1 MB token of a's fed in 4 KB chunks: every chunk but the
		// last lands in carry.
		chunk := bytes.Repeat([]byte{'a'}, 4096)
		for i := 0; i < 256; i++ {
			s.Feed(chunk, count)
		}
		if got := cap(s.carry); got < 1<<20-4096 {
			t.Fatalf("%s: test not spanning: carry cap %d", name, got)
		}
		// The b terminates the giant token.
		s.Feed([]byte("b"), count)
		if emitted != 1 {
			t.Fatalf("%s: emitted %d tokens, want 1", name, emitted)
		}
		if got := cap(s.carry); got > maxRetainedCarryCap {
			t.Errorf("%s: carry cap %d retained after giant token (limit %d)",
				name, got, maxRetainedCarryCap)
		}
		// The stream keeps working afterwards with a bounded carry.
		s.Feed([]byte("bbbaaa"), count)
		s.Feed([]byte("b"), count)
		if emitted != 3 {
			t.Fatalf("%s: emitted %d tokens, want 3", name, emitted)
		}
		if got := cap(s.carry); got > maxRetainedCarryCap {
			t.Errorf("%s: carry cap %d grew back past the limit", name, got)
		}
	}
}
