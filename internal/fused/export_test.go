package fused

import (
	"fmt"

	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// PackedStateCap exposes packedStateCap to the external tests.
const PackedStateCap = packedStateCap

// PackWork returns the transitions the packed construction explores
// for m, whether or not it aborts.
func PackWork(m *tokdfa.Machine, k int, te *tepath.Table) int {
	_, explored := buildPacked(m, k, te, Options{}.withDefaults())
	return explored
}

// CheckPackedPartition rebuilds the product and its minimization and
// checks the partition is stable: any two states of one block agree,
// on every class, on the action and (unless it is dead) on the block
// of the target. It returns the reachable and minimized state counts,
// both 0 when the product passes the cap.
func CheckPackedPartition(m *tokdfa.Machine, k int, te *tepath.Table) (reachable, blocks int, err error) {
	p, ok := buildProduct(m, k, te)
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
