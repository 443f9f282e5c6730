package bpe

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"streamtok/internal/automata"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// checkVocabDFA compiles v the way bpe.Compile does and requires the
// machine to equal, field for field, both references: the regex path
// (Thompson NFA, subset construction, minimization) and the class-table
// pipeline the direct sparse builder replaced (automata.LiteralSet, its
// co-accessibility analysis), each packed by Sparsify. Sparsify shares
// the packer with the direct build, so the layout is also checked
// against the one-base-at-a-time automata.SparsifyReference.
func checkVocabDFA(t *testing.T, v *Vocab) {
	t.Helper()
	want, err := tokdfa.Compile(v.Rules(), tokdfa.Options{Minimize: true})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want.Grammar = nil
	checkLiteralMachine(t, v.tokens, want)
}

// checkLiteralMachine requires CompileLiterals(lits) to equal the
// literal-set reference and oracle (a class-table machine of lits, or
// nil), each served from its Sparsify layout, and its layout to equal
// the reference packer's. It takes over oracle.
func checkLiteralMachine(t *testing.T, lits [][]byte, oracle *tokdfa.Machine) {
	t.Helper()
	got, err := tokdfa.CompileLiterals(lits, tokdfa.Options{})
	if err != nil {
		t.Fatalf("CompileLiterals: %v", err)
	}
	ref := literalSetReference(lits)
	if want := automata.SparsifyReference(ref.DFA); !reflect.DeepEqual(got.Sparse, want) {
		t.Fatalf("sparse layout differs from the reference packer's (%d states)", got.DFA.NumStates())
	}
	if ref := sparsified(ref); !reflect.DeepEqual(got, ref) {
		t.Fatalf("machine differs from the literal-set reference (%d states; want %d states)",
			got.DFA.NumStates(), ref.DFA.NumStates())
	}
	if oracle == nil {
		return
	}
	if oracle = sparsified(oracle); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("machine differs from the regex path: %d states, %d classes; want %d states, %d classes",
			got.DFA.NumStates(), got.DFA.NumClasses(), oracle.DFA.NumStates(), oracle.DFA.NumClasses())
	}
}

// literalSetReference builds the vocab machine through the class table:
// automata.LiteralSet, with CoAcc and Dead from its reverse search.
func literalSetReference(lits [][]byte) *tokdfa.Machine {
	d := automata.LiteralSet(lits)
	m := &tokdfa.Machine{DFA: d, NFASize: 1, CoAcc: d.CoAccessible(), Dead: -1}
	for _, lit := range lits {
		m.NFASize += 2 * max(len(lit), 1)
	}
	for q, live := range m.CoAcc {
		if !live {
			m.Dead = q
			break
		}
	}
	return m
}

// sparsified moves a class-table machine to the serving layout
// CompileLiterals gives a literal set: Sparsify's rows, no class table.
func sparsified(m *tokdfa.Machine) *tokdfa.Machine {
	m.Sparse = automata.Sparsify(m.DFA)
	m.DFA.Trans = nil
	return m
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

// TestVocabDFAMatchesLiteralSetTrained: on the bpe experiment's trained
// vocabularies the direct sparse build equals LiteralSet + Sparsify (the
// regex-path oracle is too slow at these sizes;
// TestVocabDFAMatchesCompile covers it).
func TestVocabDFAMatchesLiteralSetTrained(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 32k-merge vocabulary")
	}
	v32 := vocab32k()
	for _, size := range []int{256 + 1000, 256 + 8000, v32.Size()} {
		checkLiteralMachine(t, v32.tokens[:size], nil)
	}
}

// compileAlloc returns the bytes f allocates.
func compileAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVocabCompileAllocBound: setting up a vocabulary allocates in
// proportion to its size, never states×classes. Compiling the 8k
// vocabulary allocated 20.9 MiB while the class table was built (15.3
// MiB of it the table); the bound is 8 MiB. A synthetic byte-complete
// vocabulary of about 1M trie states, whose class table alone would be
// 1 GiB, must allocate no more than a constant plus 128 B per token
// byte.
func TestVocabCompileAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an 8k-merge vocabulary")
	}
	v := vocab8k()
	n8k := compileAlloc(func() {
		if _, err := Compile(v, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if n8k > 8<<20 {
		t.Errorf("compiling the 8k vocabulary allocated %.1f MB, want <= 8 MB", float64(n8k)/(1<<20))
	}

	// 16384 random 64-byte tokens: nearly every byte is a trie state.
	rng := rand.New(rand.NewSource(5))
	toks := byteTokens()
	sum := 256
	for len(toks) < 256+16384 {
		tok := make([]byte, 64)
		rng.Read(tok)
		toks = append(toks, tok)
		sum += len(tok)
	}
	big := mustVocab(t, toks)
	var tok *Tokenizer
	n := compileAlloc(func() {
		var err error
		if tok, err = Compile(big, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	vm := tok.VocabMachine()
	if vm.Sparse == nil || vm.DFA.NumStates() < 1_000_000 {
		t.Fatalf("synthetic vocabulary: %d states, sparse %v", vm.DFA.NumStates(), vm.Sparse != nil)
	}
	if limit := uint64(8<<20 + 128*sum); n > limit {
		t.Errorf("compiling %d states (%d token bytes) allocated %d B, over %d", vm.DFA.NumStates(), sum, n, limit)
	}
	t.Logf("8k: %.1f MB allocated; synthetic: %d states, %d token bytes, %.1f MB allocated (%.0f B per token byte)",
		float64(n8k)/(1<<20), vm.DFA.NumStates(), sum, float64(n)/(1<<20), float64(n)/float64(sum))
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
