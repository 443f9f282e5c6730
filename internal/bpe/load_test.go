package bpe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"streamtok/internal/workload"
)

func TestTiktokenRoundTrip(t *testing.T) {
	v, err := Train(workload.Prompts(11, 1<<16), 300, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseTiktoken(v.WriteTiktoken())
	if err != nil {
		t.Fatal(err)
	}
	if v2.Hash() != v.Hash() {
		t.Fatalf("round trip changed the vocabulary: %s != %s", v2.Hash(), v.Hash())
	}
}

func TestParseTiktokenRejects(t *testing.T) {
	for name, data := range map[string]string{
		"no rank":     "QQ==\n",
		"bad base64":  "!!! 0\n",
		"bad rank":    "QQ== x\n",
		"sparse rank": "QQ== 0\nQg== 5\n",
	} {
		if _, err := ParseTiktoken([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewVocabRejectsLongToken pins the token-length limit that keeps
// token lengths in the encoder's dense uint16 table.
func TestNewVocabRejectsLongToken(t *testing.T) {
	toks := append(byteTokens(), bytes.Repeat([]byte("a"), maxTokenBytes))
	if _, err := NewVocab(toks); err != nil {
		t.Fatalf("a %d-byte token: %v", maxTokenBytes, err)
	}
	toks[len(toks)-1] = bytes.Repeat([]byte("a"), maxTokenBytes+1)
	if _, err := NewVocab(toks); err == nil {
		t.Fatalf("a %d-byte token was accepted", maxTokenBytes+1)
	}
}

// encodeByteUnicode is the forward GPT-2 byte-to-unicode mapping, built
// by inverting the reader's reverse table — the test writes
// tokenizer.json files with it.
func encodeByteUnicode(tok []byte) string {
	fwd := make(map[byte]rune, 256)
	for r, b := range byteUnicodeReverse {
		fwd[b] = r
	}
	var sb strings.Builder
	for _, b := range tok {
		sb.WriteRune(fwd[b])
	}
	return sb.String()
}

func TestParseTokenizerJSON(t *testing.T) {
	v, err := Train(workload.Prompts(13, 1<<16), 200, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Render v as a minimal tokenizer.json, with an id gap to exercise
	// compaction and a merge list derived from the multi-byte tokens.
	vocab := map[string]int{}
	for r := 0; r < v.Size(); r++ {
		id := r
		if r >= 400 {
			id = r + 7 // gap: ids stay ordered but not dense
		}
		vocab[encodeByteUnicode(v.Token(r))] = id
	}
	var merges []string
	for r := 256; r < v.Size(); r++ {
		tok := v.Token(r)
		// Any split into two vocab tokens works for validation; use
		// first-byte + rest when both halves exist.
		a, b := tok[:1], tok[1:]
		if _, ok := v.Rank(b); ok {
			merges = append(merges, encodeByteUnicode(a)+" "+encodeByteUnicode(b))
		}
	}
	blob, err := json.Marshal(map[string]any{
		"model": map[string]any{"type": "BPE", "vocab": vocab, "merges": merges},
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseTokenizerJSON(blob)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Hash() != v.Hash() {
		t.Fatalf("tokenizer.json round trip changed the vocabulary")
	}

	// The newer pair-array merge serialization parses too.
	var pairs [][]string
	for _, m := range merges {
		sp := strings.LastIndexByte(m, ' ')
		pairs = append(pairs, []string{m[:sp], m[sp+1:]})
	}
	blob2, _ := json.Marshal(map[string]any{
		"model": map[string]any{"type": "BPE", "vocab": vocab, "merges": pairs},
	})
	if _, err := ParseTokenizerJSON(blob2); err != nil {
		t.Fatalf("pair-array merges: %v", err)
	}
}

func TestParseTokenizerJSONRejects(t *testing.T) {
	mk := func(model map[string]any) []byte {
		b, _ := json.Marshal(map[string]any{"model": model})
		return b
	}
	completeVocab := map[string]int{}
	for b := 0; b < 256; b++ {
		completeVocab[encodeByteUnicode([]byte{byte(b)})] = b
	}
	for name, blob := range map[string][]byte{
		"not json":      []byte("nope"),
		"wrong type":    mk(map[string]any{"type": "WordPiece", "vocab": completeVocab}),
		"no vocab":      mk(map[string]any{"type": "BPE"}),
		"bad merge":     mk(map[string]any{"type": "BPE", "vocab": completeVocab, "merges": []string{"a b"}}),
		"bad codepoint": mk(map[string]any{"type": "BPE", "vocab": map[string]int{"\x00": 0}}),
	} {
		if _, err := ParseTokenizerJSON(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCanonicalHashStability(t *testing.T) {
	v, err := Train(workload.Prompts(17, 1<<15), 64, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Hash() != v.Hash() {
		t.Fatal("hash not stable")
	}
	canon := v.AppendCanonical(nil)
	if !bytes.HasPrefix(canon, []byte("bpevocab1\x00")) {
		t.Fatal("canonical serialization lost its magic")
	}
	// A different vocabulary hashes differently.
	v2, err := Train(workload.Prompts(17, 1<<15), 65, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Hash() == v.Hash() {
		t.Fatal("distinct vocabularies collide")
	}
}
