package automata

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// byteComplete returns the 256 single bytes followed by words.
func byteComplete(words ...string) [][]byte {
	lits := make([][]byte, 0, 256+len(words))
	for b := 0; b < 256; b++ {
		lits = append(lits, []byte{byte(b)})
	}
	for _, w := range words {
		lits = append(lits, []byte(w))
	}
	return lits
}

// fanOut returns prefix followed by every byte except those in skip.
func fanOut(prefix string, skip ...byte) []string {
	var out []string
	for b := 0; b < 256; b++ {
		keep := true
		for _, s := range skip {
			keep = keep && byte(b) != s
		}
		if keep {
			out = append(out, prefix+string([]byte{byte(b)}))
		}
	}
	return out
}

// trieCases are the literal sets the direct builder is checked on: the
// empty set, the empty literal, duplicates, unused bytes, a single
// token, a single byte-complete node, nodes missing one class (the
// default is then the lowest target, not the dead state), and random
// sets over small alphabets and over all 256 bytes.
func trieCases() [][][]byte {
	cases := [][][]byte{
		nil,
		{{}},
		{{}, []byte("a")},
		{[]byte("a")},
		{[]byte("a"), []byte("a")},
		{[]byte("ab"), []byte("a"), []byte("abc"), []byte("b")},
		{{0x00}, {0xff}, {0x00, 0xff}, {0xff, 0xff, 0x00}},
		byteComplete(),
		byteComplete("the", "then", "they", "there", "in", "int", "into", "stream"),
		byteComplete(append(fanOut("a", 'q'), fanOut("b")...)...),
		byteComplete(fanOut("\x00", 0x00)...),
		byteComplete(fanOut("z", 0xff)...),
	}
	var lits [][]byte
	for _, w := range fanOut("") {
		lits = append(lits, []byte(w))
	}
	cases = append(cases, lits[1:]) // every byte but 0x00: the unused class is a single byte
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 200; trial++ {
		alphabet := "abcd\x00\xff"[:1+rng.Intn(6)]
		lits := make([][]byte, rng.Intn(12))
		for i := range lits {
			lit := make([]byte, rng.Intn(5))
			for j := range lit {
				lit[j] = alphabet[rng.Intn(len(alphabet))]
			}
			lits[i] = lit
		}
		cases = append(cases, lits)
	}
	for trial := 0; trial < 20; trial++ {
		lits := byteComplete()
		for i := rng.Intn(400); i > 0; i-- {
			lit := make([]byte, 1+rng.Intn(6))
			for j := range lit {
				lit[j] = byte(rng.Intn(256))
				if j > 0 && rng.Intn(2) == 0 {
					lit[j] = byte('a' + rng.Intn(4)) // shared prefixes
				}
			}
			lits = append(lits, lit)
		}
		rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
		cases = append(cases, lits)
	}
	return cases
}

// TestTrieSparseMatchesSparsify: the layout built from the trie's child
// lists is the one Sparsify packs from LiteralSet's class table, field
// for field, and the trie's dead state is the class table's. Among the
// cases is a set whose sparse layout is larger than its class table (a
// literal set over a few bytes), so both row shapes are covered.
func TestTrieSparseMatchesSparsify(t *testing.T) {
	sparseLoses := false
	for i, lits := range trieCases() {
		tr := NewTrie(lits)
		d := LiteralSet(lits)
		want := Sparsify(d)
		if got := tr.Sparse(); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d literals, %d states, %d classes): layout differs from Sparsify", i, len(lits), d.NumStates(), d.NumClasses())
		}
		for q, live := range d.CoAccessible() {
			if live == (q == tr.Dead()) {
				t.Fatalf("case %d: state %d co-accessible %v, dead state %d", i, q, live, tr.Dead())
			}
		}
		sparseLoses = sparseLoses || want.TableBytes() >= d.TableBytes()
	}
	if !sparseLoses {
		t.Fatal("no case has a sparse layout larger than its class table")
	}
}

// TestSparseVerifyCatchesCorruption: the build-time check panics on a
// built layout with any one field corrupted, for both row sources: a
// slot's owner, a slot's target, a default, a base, a dense entry, and
// a slot claimed inside a state's window that its row has no entry for.
func TestSparseVerifyCatchesCorruption(t *testing.T) {
	sources := map[string]func() *rowTable{
		"trie": func() *rowTable {
			return NewTrie(byteComplete("the", "then", "they", "there", "in", "int", "into", "stream", "streaming")).rows()
		},
		"class-table": func() *rowTable {
			return classRows(sparseFixture(t, []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}))
		},
	}
	// claimed returns a displaced state with entries and one of its slots.
	claimed := func(s *SparseDFA) (q, i int) {
		for i, c := range s.Check {
			if c != -1 {
				return int(c), i
			}
		}
		t.Fatal("layout claims no slot")
		return
	}
	corruptions := map[string]func(*SparseDFA){
		"check owner": func(s *SparseDFA) {
			q, i := claimed(s)
			s.Check[i] = int32((q + 1) % len(s.Accept))
		},
		"next target": func(s *SparseDFA) {
			_, i := claimed(s)
			s.Next[i] = (s.Next[i] + 1) % int32(len(s.Accept))
		},
		"default": func(s *SparseDFA) {
			q, _ := claimed(s)
			s.Default[q] = (s.Default[q] + 1) % int32(len(s.Accept))
		},
		"base": func(s *SparseDFA) {
			q, _ := claimed(s)
			s.Base[q]++
		},
		"dense entry": func(s *SparseDFA) {
			if len(s.Dense) == 0 {
				t.Fatal("layout has no dense row")
			}
			s.Dense[7] = (s.Dense[7] + 1) % int32(len(s.Accept))
		},
		"in-window claim": func(s *SparseDFA) {
			nc := len(s.Reps)
			for q, b := range s.Base {
				for i := int(b); b >= 0 && i < int(b)+nc; i++ {
					if s.Check[i] == -1 {
						s.Check[i] = int32(q)
						return
					}
				}
			}
			t.Fatal("no free slot inside any window")
		},
	}
	for src, rows := range sources {
		rt := rows()
		rt.build() // the intact layout passes
		for name, corrupt := range corruptions {
			t.Run(fmt.Sprintf("%s/%s", src, name), func(t *testing.T) {
				rt := rows()
				rt.pack()
				corrupt(rt.s)
				defer func() {
					if recover() == nil {
						t.Fatal("corrupted layout passed the check")
					}
				}()
				rt.verify()
			})
		}
	}
}
