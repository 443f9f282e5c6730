package bpe

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"streamtok/internal/automata"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// checkVocabDFA compiles v both ways — the literal-set constructor
// bpe.Compile uses and the regex path (Thompson NFA, subset
// construction, minimization) it replaced — and requires the two
// machines, and then their sparse layouts, to be identical.
func checkVocabDFA(t *testing.T, v *Vocab) {
	t.Helper()
	got, err := tokdfa.CompileLiterals(v.tokens, tokdfa.Options{})
	if err != nil {
		t.Fatalf("CompileLiterals: %v", err)
	}
	want, err := tokdfa.Compile(v.Rules(), tokdfa.Options{Minimize: true})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !reflect.DeepEqual(got.DFA, want.DFA) {
		t.Fatalf("DFA differs: %d states, %d classes; want %d states, %d classes",
			got.DFA.NumStates(), got.DFA.NumClasses(), want.DFA.NumStates(), want.DFA.NumClasses())
	}
	if got.NFASize != want.NFASize {
		t.Fatalf("NFASize %d, want %d", got.NFASize, want.NFASize)
	}
	if !reflect.DeepEqual(got.CoAcc, want.CoAcc) {
		t.Fatal("CoAcc differs")
	}
	if got.Dead != want.Dead {
		t.Fatalf("Dead %d, want %d", got.Dead, want.Dead)
	}
	if g, w := got.SelectSparse(sparseRatioThreshold), want.SelectSparse(sparseRatioThreshold); g != w {
		t.Fatalf("SelectSparse adopted %v, want %v", g, w)
	}
	if !reflect.DeepEqual(got.Sparse, want.Sparse) {
		t.Fatal("sparse layout differs")
	}
}

// byteTokens returns the 256 single-byte tokens in byte order.
func byteTokens() [][]byte {
	toks := make([][]byte, 256)
	for b := range toks {
		toks[b] = []byte{byte(b)}
	}
	return toks
}

// mustVocab is NewVocab that fails the test on error.
func mustVocab(tb testing.TB, toks [][]byte) *Vocab {
	tb.Helper()
	v, err := NewVocab(toks)
	if err != nil {
		tb.Fatalf("NewVocab: %v", err)
	}
	return v
}

// edgeByteVocab merges over an alphabet that includes 0x00 and 0xff,
// the first and last columns of the class table.
func edgeByteVocab(tb testing.TB) *Vocab {
	return mustVocab(tb, append(byteTokens(),
		[]byte{0x00, 0x00}, []byte{0xff, 0x00}, []byte{0x00, 0xff, 0xff}, []byte{0xff, 0xff}))
}

// lateByteVocab ranks multi-byte tokens ahead of the byte tokens, so
// the single bytes are not ranks 0–255.
func lateByteVocab(tb testing.TB) *Vocab {
	toks := [][]byte{[]byte("ab"), []byte("abc"), []byte("ba"), []byte("b\x00")}
	return mustVocab(tb, append(toks, byteTokens()...))
}

// trainedVocab is a few-thousand-merge vocabulary trained on a fixed
// prompt corpus.
var trainedVocab = sync.OnceValue(func() *Vocab {
	v, err := Train(workload.Prompts(5, 1<<18), 3000, TrainOptions{})
	if err != nil {
		panic(err)
	}
	return v
})

func TestVocabDFAMatchesCompile(t *testing.T) {
	for _, alphabet := range []string{"ab", "abc"} {
		for _, v := range smallVocabs(t, alphabet) {
			checkVocabDFA(t, v)
		}
	}
	t.Run("edge-bytes", func(t *testing.T) { checkVocabDFA(t, edgeByteVocab(t)) })
	t.Run("late-bytes", func(t *testing.T) { checkVocabDFA(t, lateByteVocab(t)) })
	t.Run("trained", func(t *testing.T) {
		if testing.Short() {
			t.Skip("trains a 3000-merge vocabulary")
		}
		checkVocabDFA(t, trainedVocab())
	})
}

// encodeTokens serializes a token list in FuzzVocabDFA's input format:
// per token, one byte holding len-1 in its low four bits, then the
// token bytes.
func encodeTokens(toks [][]byte) []byte {
	var out []byte
	for _, tok := range toks {
		out = append(out, byte(len(tok)-1))
		out = append(out, tok...)
	}
	return out
}

// decodeTokens parses FuzzVocabDFA's input format, dropping repeated
// tokens and appending whichever single bytes are missing, so every
// input is a valid vocabulary.
func decodeTokens(data []byte) [][]byte {
	var toks [][]byte
	seen := map[string]bool{}
	for len(data) > 0 {
		n := min(int(data[0]&15)+1, len(data)-1)
		tok := data[1 : 1+n]
		data = data[1+n:]
		if n > 0 && !seen[string(tok)] {
			seen[string(tok)] = true
			toks = append(toks, tok)
		}
	}
	for b := 0; b < 256; b++ {
		if !seen[string([]byte{byte(b)})] {
			toks = append(toks, []byte{byte(b)})
		}
	}
	return toks
}

func FuzzVocabDFA(f *testing.F) {
	for _, alphabet := range []string{"ab", "abc"} {
		for _, v := range smallVocabs(f, alphabet) {
			f.Add(encodeTokens(v.tokens))
		}
	}
	f.Add(encodeTokens(edgeByteVocab(f).tokens))
	f.Add(encodeTokens(lateByteVocab(f).tokens))
	f.Add(encodeTokens(trainedVocab().tokens))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkVocabDFA(t, mustVocab(t, decodeTokens(data)))
	})
}

// TestVocabDFAStateLimit pins the oversize refusal: a vocabulary whose
// Thompson NFA (1 + 2·Σ|token| states) would pass the default 1<<22
// budget fails with ErrNFATooLarge, as it did when vocabularies compiled
// through the NFA, and one at the largest admissible size compiles.
// The long tokens are nested runs of one byte, so the trie (and the
// table) stays small while the summed length reaches the limit.
func TestVocabDFAStateLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 2 MiB vocabularies")
	}
	const limit = 1 << 22
	vocab := func(size int) *Vocab {
		toks := byteTokens()
		sum := 256
		for k := 2; 1+2*(sum+k) <= size; k++ {
			toks = append(toks, bytes.Repeat([]byte{'a'}, k))
			sum += k
		}
		// Pad with one token of another byte to land on size exactly.
		if pad := (size-1)/2 - sum; pad > 1 {
			toks = append(toks, bytes.Repeat([]byte{'b'}, pad))
			sum += pad
		}
		if got := 1 + 2*sum; got != size {
			t.Fatalf("synthetic vocab has NFA size %d, want %d", got, size)
		}
		return mustVocab(t, toks)
	}

	under := vocab(limit - 1) // 1 + 2Σ is odd: the largest size ≤ limit
	tok, err := Compile(under, Options{})
	if err != nil {
		t.Fatalf("vocab at NFA size %d: %v", limit-1, err)
	}
	if got := tok.VocabMachine().NFASize; got != limit-1 {
		t.Fatalf("NFASize %d, want %d", got, limit-1)
	}

	over := vocab(limit + 1)
	if _, err := Compile(over, Options{}); !errors.Is(err, automata.ErrNFATooLarge) {
		t.Fatalf("vocab at NFA size %d: err %v, want ErrNFATooLarge", limit+1, err)
	}
}
