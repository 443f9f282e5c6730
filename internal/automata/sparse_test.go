package automata

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
	if err := s.Validate(); err != nil {
		t.Fatalf("built sparse table fails Validate: %v", err)
	}
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

func TestSparseCoAccessible(t *testing.T) {
	d := sparseFixture(t, []string{"ab", "abc", "xyz"})
	s := Sparsify(d)
	want := d.CoAccessible()
	got := s.CoAccessible()
	if len(got) != len(want) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for q := range want {
		if got[q] != want[q] {
			t.Fatalf("CoAccessible(%d) = %v, class table %v", q, got[q], want[q])
		}
	}
}

func TestSparseValidateRejectsCorruption(t *testing.T) {
	d := sparseFixture(t, []string{"ab", "cd"})
	corrupt := []func(*SparseDFA){
		func(s *SparseDFA) { s.Base[1] = int32(len(s.Check)) },        // base overruns slots
		func(s *SparseDFA) { s.Base[0] = -int32(len(s.Dense)) - 100 }, // dense row out of range
		func(s *SparseDFA) { s.Default[2] = int32(len(s.Accept)) },    // default target out of range
		func(s *SparseDFA) { s.Check[0] = int32(len(s.Accept)) + 7 },  // check names a ghost state
		func(s *SparseDFA) { s.Dense = s.Dense[:len(s.Dense)-1] },     // ragged dense spill
		func(s *SparseDFA) { s.Start = 3 },
	}
	for i, f := range corrupt {
		s := Sparsify(d)
		if len(s.Dense) == 0 && (i == 1 || i == 4) {
			continue // fixture stored no dense rows; nothing to corrupt
		}
		f(s)
		if err := s.Validate(); err == nil {
			t.Errorf("corruption %d passed Validate", i)
		}
	}
	// Corrupt a claimed slot's target.
	s := Sparsify(d)
	for i, c := range s.Check {
		if c != -1 {
			s.Next[i] = int32(len(s.Accept)) + 1
			if err := s.Validate(); err == nil {
				t.Error("out-of-range next target passed Validate")
			}
			break
		}
	}
}

// sparsifyReference is Sparsify as it stood before the packer learned
// to skip occupied slots: the one-base-at-a-time first-fit search, kept
// verbatim as the oracle the packer-identity tests compare against.
//
// It builds the row-displacement layout for d and verifies it
// transition-for-transition against the class table before returning.
// The construction is deterministic: rows are packed first-fit in
// decreasing entry-count order (ties by state id), so the same DFA
// always serializes to the same bytes.
func sparsifyReference(d *DFA) *SparseDFA {
	m := d.NumStates()
	nc := len(d.Reps)
	s := &SparseDFA{
		Base:    make([]int32, m),
		Default: make([]int32, m),
		ClassOf: d.ClassOf,
		Reps:    d.Reps,
		Accept:  d.Accept,
		Start:   d.Start,
	}

	// Per row: the majority target becomes the default, the rest become
	// displaced entries (or the row goes dense past the threshold).
	type row struct {
		q       int32
		classes []int32 // class indices with non-default targets
	}
	var rows []row
	counts := make(map[int32]int, nc)
	threshold := denseRowThreshold(nc)
	for q := 0; q < m; q++ {
		tr := d.Trans[q*nc : (q+1)*nc]
		clear(counts)
		var def int32
		best := -1
		for _, t := range tr {
			counts[t]++
			if c := counts[t]; c > best || (c == best && t < def) {
				best, def = c, t
			}
		}
		s.Default[q] = def
		var classes []int32
		for c, t := range tr {
			if t != def {
				classes = append(classes, int32(c))
			}
		}
		if len(classes) > threshold {
			r := int32(len(s.Dense) / nc)
			s.Dense = append(s.Dense, tr...)
			s.Base[q] = -(r + 1)
			continue
		}
		rows = append(rows, row{q: int32(q), classes: classes})
	}

	sort.Slice(rows, func(i, j int) bool {
		if len(rows[i].classes) != len(rows[j].classes) {
			return len(rows[i].classes) > len(rows[j].classes)
		}
		return rows[i].q < rows[j].q
	})

	// First-fit packing into Next/Check. Check doubles as the free map
	// (-1 = free); arrays grow as bases push past the current end and
	// are finally padded so Base[q]+c is in bounds for every class.
	grow := func(upto int) {
		for len(s.Check) <= upto {
			s.Next = append(s.Next, 0)
			s.Check = append(s.Check, -1)
		}
	}
	firstFree := 0
	for _, r := range rows {
		if len(r.classes) == 0 {
			s.Base[r.q] = 0 // all-default row; claims no slots
			continue
		}
		base := firstFree
	search:
		for {
			for _, c := range r.classes {
				i := base + int(c)
				if i < len(s.Check) && s.Check[i] != -1 {
					base++
					continue search
				}
			}
			break
		}
		grow(base + int(r.classes[len(r.classes)-1]))
		for _, c := range r.classes {
			i := base + int(c)
			s.Check[i] = r.q
			s.Next[i] = d.Trans[int(r.q)*nc+int(c)]
		}
		s.Base[r.q] = int32(base)
		for firstFree < len(s.Check) && s.Check[firstFree] != -1 {
			firstFree++
		}
	}
	grow(maxBase(s.Base) + nc - 1)

	// Build-time ground truth: the sparse layout must agree with the
	// class table on every (state, class) before the class table may be
	// dropped.
	for q := 0; q < m; q++ {
		for c := 0; c < nc; c++ {
			if got, want := s.StepClass(q, c), int(d.Trans[q*nc+c]); got != want {
				panic(fmt.Sprintf("automata: sparse table disagrees at (%d, %d): %d != %d", q, c, got, want))
			}
		}
	}
	return s
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

// TestSparsifyMatchesReference: the free-slot packer picks the same
// first-fit bases as the one-base-at-a-time search, so the layouts are
// identical, on random DFAs and on the trie fixtures.
func TestSparsifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 300; trial++ {
		d := randomSparsifyDFA(rng)
		if got, want := Sparsify(d), sparsifyReference(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d states, %d classes): layout differs from the reference", trial, d.NumStates(), d.NumClasses())
		}
	}
	d := sparseFixture(t, []string{"the", "then", "they", "there", "in", "int", "into", "stream", "streaming"})
	if !reflect.DeepEqual(Sparsify(d), sparsifyReference(d)) {
		t.Fatal("trie fixture: layout differs from the reference")
	}
}
