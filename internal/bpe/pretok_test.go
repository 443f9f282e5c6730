package bpe

import (
	"slices"
	"testing"

	"streamtok/internal/testutil"
)

// TestPretokCorpusCopy pins testutil's copy of the pretokenizer grammar,
// which puts it under the core differentials and fuzzers, to
// PretokRules, and pins the engine it compiles to: the packed K=2
// product.
func TestPretokCorpusCopy(t *testing.T) {
	if !slices.Equal(testutil.PretokRules(), PretokRules()) {
		t.Fatalf("testutil.PretokRules %q differs from PretokRules %q", testutil.PretokRules(), PretokRules())
	}
	found := false
	for _, c := range testutil.Corpus() {
		if c.Name == "pretok" {
			found = slices.Equal(c.Rules, PretokRules())
		}
	}
	if !found {
		t.Fatal("the testutil corpus has no pretok case with PretokRules")
	}
	tok, err := Compile(mustVocab(t, byteTokens()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mode := tok.EngineMode(); mode != "bpe+fused-k2" {
		t.Errorf("engine mode %s, want bpe+fused-k2", mode)
	}
}
