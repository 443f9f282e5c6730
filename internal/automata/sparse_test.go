package automata

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamtok/internal/regex"
)

// sparseFixture builds a trie-shaped DFA the way BPE vocabularies do:
// literal rules over a byte-complete alphabet, so the class partition
// degenerates (C = 256) and row displacement is the only compression
// left.
func sparseFixture(t *testing.T, words []string) *DFA {
	t.Helper()
	exprs := make([]regex.Node, 0, len(words)+256)
	for _, w := range words {
		exprs = append(exprs, regex.Lit(w))
	}
	for b := 0; b < 256; b++ {
		exprs = append(exprs, regex.Lit(string([]byte{byte(b)})))
	}
	nfa, err := BuildNFALimited(exprs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d := Determinize(nfa)
	return Minimize(d)
}

func TestSparsifyEquivalence(t *testing.T) {
	words := []string{
		"the", "then", "they", "there", "that", "this", "those",
		"in", "int", "into", "interface", "and", "an", "any",
		"stream", "streaming", "token", "tokens", "tokenize",
	}
	d := sparseFixture(t, words)
	s := Sparsify(d)
	for q := 0; q < d.NumStates(); q++ {
		for b := 0; b < 256; b++ {
			if got, want := s.Step(q, byte(b)), d.Step(q, byte(b)); got != want {
				t.Fatalf("Step(%d, %#x) = %d, class table %d", q, b, got, want)
			}
		}
		if s.IsFinal(q) != d.IsFinal(q) || s.Rule(q) != d.Rule(q) {
			t.Fatalf("accept mismatch at state %d", q)
		}
	}
}

func TestSparsifyShrinksDegenerateTables(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	d := sparseFixture(t, words)
	if d.NumClasses() != 256 {
		t.Fatalf("fixture should be byte-complete (C=256), got C=%d", d.NumClasses())
	}
	s := Sparsify(d)
	if s.TableBytes() >= d.TableBytes() {
		t.Fatalf("sparse %d B >= class table %d B on a degenerate partition", s.TableBytes(), d.TableBytes())
	}
	// Trie rows are overwhelmingly default-to-dead: the entry arrays
	// must scale with edges, not states*classes.
	if len(s.Next) > d.NumStates()*8+2*d.NumClasses() {
		t.Fatalf("entry array %d slots for %d states — packing degenerated", len(s.Next), d.NumStates())
	}
}

func TestSparsifyDeterministic(t *testing.T) {
	words := []string{"one", "two", "three", "four", "five", "fortune", "formal"}
	d := sparseFixture(t, words)
	a, b := Sparsify(d), Sparsify(d)
	if len(a.Next) != len(b.Next) || len(a.Dense) != len(b.Dense) {
		t.Fatalf("two builds differ in shape: %d/%d vs %d/%d", len(a.Next), len(a.Dense), len(b.Next), len(b.Dense))
	}
	for i := range a.Base {
		if a.Base[i] != b.Base[i] {
			t.Fatalf("Base[%d] differs: %d vs %d", i, a.Base[i], b.Base[i])
		}
	}
	for i := range a.Next {
		if a.Next[i] != b.Next[i] || a.Check[i] != b.Check[i] {
			t.Fatalf("slot %d differs", i)
		}
	}
}

// randomSparsifyDFA builds a DFA whose rows mix the three shapes the
// packer handles: all-default rows (no displaced entries), sparse rows
// (a default plus a few exceptions) and rows past the dense threshold
// (stored out of line).
func randomSparsifyDFA(rng *rand.Rand) *DFA {
	m := 1 + rng.Intn(120)
	nc := 1 + rng.Intn(48)
	if rng.Intn(4) == 0 {
		nc = 256
	}
	d := &DFA{Trans: make([]int32, m*nc), Reps: make([]byte, nc), Accept: make([]int32, m)}
	for c := range d.Reps {
		d.Reps[c] = byte(c)
	}
	for b := range d.ClassOf {
		d.ClassOf[b] = uint8(b % nc)
	}
	for q := 0; q < m; q++ {
		d.Accept[q] = NoRule
		if rng.Intn(3) == 0 {
			d.Accept[q] = int32(rng.Intn(5))
		}
		row := d.Trans[q*nc : (q+1)*nc]
		def := int32(rng.Intn(m))
		for c := range row {
			row[c] = def
		}
		switch rng.Intn(3) {
		case 0: // all-default
		case 1: // sparse
			for k := rng.Intn(1 + nc/4); k > 0; k-- {
				row[rng.Intn(nc)] = int32(rng.Intn(m))
			}
		default: // dense
			for c := range row {
				row[c] = int32(rng.Intn(m))
			}
		}
	}
	return d
}

// manyShapeTries are byte-complete literal sets of random tokens over
// 26-, 64- and 256-byte alphabets: tries whose rows come in hundreds of
// shapes and a range of sizes, with first classes far from 0, so the
// packer's per-shape spans are both reused and replaced. They are sized
// for the one-base-at-a-time reference to pack them in about a second.
func manyShapeTries() map[string][][]byte {
	rng := rand.New(rand.NewSource(87))
	tries := map[string][][]byte{}
	for _, c := range []struct {
		first, alphabet, tokens, maxLen int
	}{{'a', 26, 6000, 8}, {'@', 64, 6000, 6}, {0, 256, 6000, 4}} {
		lits := byteComplete()
		for range c.tokens {
			lit := make([]byte, 1+rng.Intn(c.maxLen))
			for j := range lit {
				lit[j] = byte(c.first + rng.Intn(c.alphabet))
			}
			lits = append(lits, lit)
		}
		tries[fmt.Sprintf("random-%d", c.alphabet)] = lits
	}
	return tries
}

// TestSparsifyMatchesReference: the bitmap-window packer picks the same
// first-fit bases as the one-base-at-a-time search, so the layouts are
// identical, on random DFAs, on the trie fixtures and on many-shape
// tries, through both row sources.
func TestSparsifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 300; trial++ {
		d := randomSparsifyDFA(rng)
		if got, want := Sparsify(d), SparsifyReference(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d states, %d classes): layout differs from the reference", trial, d.NumStates(), d.NumClasses())
		}
	}
	d := sparseFixture(t, []string{"the", "then", "they", "there", "in", "int", "into", "stream", "streaming"})
	if !reflect.DeepEqual(Sparsify(d), SparsifyReference(d)) {
		t.Fatal("trie fixture: layout differs from the reference")
	}
	for name, lits := range manyShapeTries() {
		tr := NewTrie(lits)
		want := SparsifyReference(tr.DFA())
		if !reflect.DeepEqual(tr.Sparse(), want) {
			t.Errorf("%s (%d states): Trie.Sparse differs from the reference", name, tr.NumStates())
		}
		if !reflect.DeepEqual(Sparsify(tr.DFA()), want) {
			t.Errorf("%s (%d states): Sparsify differs from the reference", name, tr.NumStates())
		}
	}
}
