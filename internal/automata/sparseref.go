package automata

import (
	"fmt"
	"sort"
)

// SparsifyReference is Sparsify as it stood before the packer learned
// to skip occupied slots: the one-base-at-a-time first-fit search, kept
// verbatim as the oracle the packer-identity tests compare against.
// Production never calls it; it is exported so that the bpe tests and
// the external automata tests can check their layouts against it too.
//
// It builds the row-displacement layout for d and verifies it
// transition-for-transition against the class table before returning.
// The construction is deterministic: rows are packed first-fit in
// decreasing entry-count order (ties by state id), so the same DFA
// always serializes to the same bytes.
func SparsifyReference(d *DFA) *SparseDFA {
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
