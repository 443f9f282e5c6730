package fused

import (
	"fmt"

	"streamtok/internal/tokdfa"
)

// PackedWorkCap exposes packedWorkCap to the external tests.
const PackedWorkCap = packedWorkCap

// PackWork returns the packed construction's work for m, whether or not
// it aborts, in packedWorkCap's unit: transitions explored times the
// (K+1)(K+2)/2 slots of a state's key.
func PackWork(m *tokdfa.Machine, k int) int {
	_, explored := buildPacked(m, k, Options{}.withDefaults())
	return explored * (k + 1) * (k + 2) / 2
}

// CheckPackedPartition rebuilds the product and its minimization and
// checks the partition is stable: any two states of one block agree,
// on every class, on the action and (unless it is dead) on the block
// of the target. It returns the reachable and minimized state counts,
// both 0 when the construction passes the work bound.
func CheckPackedPartition(m *tokdfa.Machine, k int) (reachable, blocks int, err error) {
	p, ok := buildProduct(m, k)
	if !ok {
		return 0, 0, nil
	}
	block, n := p.minimize()
	rep := make([]int, n)
	for i := range rep {
		rep[i] = -1
	}
	nc := p.nc
	for s := 0; s < p.n; s++ {
		r := rep[block[s]]
		if r < 0 {
			rep[block[s]] = s
			continue
		}
		for c := 0; c < nc; c++ {
			a, b := s*nc+c, r*nc+c
			if p.act[a] != p.act[b] ||
				uint32(p.act[a]) != SActDead && block[p.next[a]] != block[p.next[b]] {
				return p.n, n, fmt.Errorf("states %d and %d share block %d but differ on class %d", s, r, block[s], c)
			}
		}
	}
	return p.n, n, nil
}
