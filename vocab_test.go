package streamtok_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamtok"
	"streamtok/internal/workload"
)

func trainTestVocab(t *testing.T) *streamtok.Vocab {
	t.Helper()
	v, err := streamtok.TrainVocab(workload.Prompts(21, 1<<18), 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCompileVocab(t *testing.T) {
	v := trainTestVocab(t)
	tok, err := streamtok.Compile(v, streamtok.Options{})
	if err != nil {
		t.Fatal(err)
	}

	e := tok.Engine()
	if !strings.HasPrefix(e.Mode, "bpe+") {
		t.Errorf("Engine().Mode = %q, want bpe+*", e.Mode)
	}
	if e.TableBytes <= 0 || e.K <= 0 {
		t.Errorf("EngineInfo not populated: %+v", e)
	}
	if tok.Vocab() == nil || tok.Vocab().Hash() != v.Hash() {
		t.Error("Tokenizer.Vocab() does not round-trip")
	}

	// The certificate binds to the vocabulary hash and reports the
	// combined resident footprint.
	c := tok.Certificate()
	if c == nil {
		t.Fatal("no certificate")
	}
	if c.GrammarHash != v.Hash() {
		t.Errorf("certificate hash %s != vocab %s", c.GrammarHash, v.Hash())
	}
	if c.EngineMode != e.Mode || c.TableBytes != e.TableBytes {
		t.Errorf("certificate (%s, %d B) disagrees with Engine() (%s, %d B)",
			c.EngineMode, c.TableBytes, e.Mode, e.TableBytes)
	}

	// Streamed output equals the reference encoding; offsets cover the
	// input.
	input := workload.Prompts(77, 1<<14)
	want := v.Encode(nil, input)
	toks, rest := tok.TokenizeBytes(input)
	if rest != len(input) || len(toks) != len(want) {
		t.Fatalf("stream: %d tokens rest %d, reference %d tokens len %d", len(toks), rest, len(want), len(input))
	}
	var ranks []int
	for i, tk := range toks {
		if tk.Rule != want[i] {
			t.Fatalf("token %d: rank %d, reference %d", i, tk.Rule, want[i])
		}
		ranks = append(ranks, tk.Rule)
	}
	if !bytes.Equal(v.Decode(nil, ranks), input) {
		t.Fatal("decode does not round-trip")
	}
}

func TestVocabStreamerAndStats(t *testing.T) {
	v := trainTestVocab(t)
	tok, err := streamtok.Compile(v, streamtok.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := workload.Prompts(5, 1<<13)
	want := v.Encode(nil, input)

	s := tok.AcquireStreamer()
	var got []int
	emit := func(tk streamtok.Token, _ []byte) { got = append(got, tk.Rule) }
	for i := 0; i < len(input); i += 100 {
		e := i + 100
		if e > len(input) {
			e = len(input)
		}
		s.Feed(input[i:e], emit)
	}
	if rest := s.Close(emit); rest != len(input) {
		t.Fatalf("rest %d != %d", rest, len(input))
	}
	st := s.Stats()
	tok.ReleaseStreamer(s)

	if len(got) != len(want) {
		t.Fatalf("%d ranks streamed, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %d != %d", i, got[i], want[i])
		}
	}

	// Stats count at pretokenizer granularity with the pretok rule names.
	if st.BytesIn != uint64(len(input)) {
		t.Errorf("BytesIn %d != %d", st.BytesIn, len(input))
	}
	if st.TokensOut == 0 {
		t.Error("no pieces counted")
	}
	names := strings.Join(st.RuleNames, ",")
	if !strings.Contains(names, "word") || !strings.Contains(names, "space") {
		t.Errorf("RuleNames = %v, want pretokenizer names", st.RuleNames)
	}
}

func TestLoadVocabSniffsFormat(t *testing.T) {
	v := trainTestVocab(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "test.tiktoken")
	if err := os.WriteFile(path, v.WriteTiktoken(), 0o644); err != nil {
		t.Fatal(err)
	}
	v2, err := streamtok.LoadVocab(path)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Hash() != v.Hash() {
		t.Fatal("tiktoken load changed the vocabulary")
	}
	if _, err := streamtok.ParseVocab([]byte(`{"model":{"type":"BPE"}}`)); err == nil {
		t.Error("sniffed tokenizer.json with no vocab accepted")
	}
}

func TestMachineFileSource(t *testing.T) {
	g := streamtok.MustParseGrammar(`[0-9]+`, `[a-z]+`, `[ \t\n]+`)
	var buf bytes.Buffer
	if err := streamtok.SaveCompiled(g, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.stm")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.Compile(streamtok.MachineFile(path), streamtok.Options{})
	if err != nil {
		t.Fatal(err)
	}
	toks, rest := tok.TokenizeBytes([]byte("abc 123"))
	if rest != 7 || len(toks) != 3 {
		t.Fatalf("machine-file tokenizer: %d tokens, rest %d", len(toks), rest)
	}
	if _, err := streamtok.Compile(streamtok.MachineFile(filepath.Join(t.TempDir(), "missing")), streamtok.Options{}); err == nil {
		t.Error("missing machine file accepted")
	}
}
