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

// TestK1TableOnlyForSplit: the split Fig. 5 table is built and counted
// only when the split k == 1 loop serves; fused-k1 packs the same
// decision into its own words and holds no K1 table.
func TestK1TableOnlyForSplit(t *testing.T) {
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(`[0-9]+`, `[ ]+`), tokdfa.Options{Minimize: true})
	fusedTok, err := NewWithK(m, 1, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	splitTok, err := NewWithKBudget(m, 1, tepath.Limits{}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if fusedTok.EngineMode() != "fused-k1" || splitTok.EngineMode() != "split-k1" {
		t.Fatalf("modes %s/%s, want fused-k1/split-k1", fusedTok.EngineMode(), splitTok.EngineMode())
	}
	if fusedTok.k1 != nil {
		t.Error("fused-k1 tokenizer holds a K1 table")
	}
	if splitTok.k1 == nil {
		t.Fatal("split-k1 tokenizer has no K1 table")
	}
	if want := m.DFA.TableBytes() + fusedTok.fe.Bytes(); fusedTok.TableBytes() != want {
		t.Errorf("fused-k1 table bytes %d, want DFA + fused = %d", fusedTok.TableBytes(), want)
	}
	if want := m.DFA.TableBytes() + splitTok.k1.Bytes(); splitTok.TableBytes() != want {
		t.Errorf("split-k1 table bytes %d, want DFA + K1 = %d", splitTok.TableBytes(), want)
	}
}
