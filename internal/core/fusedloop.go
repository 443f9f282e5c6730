package core

import (
	"streamtok/internal/fused"
)

// The fused feed loops: same emission, carry, and draining semantics as
// the split loops in streamtok.go (byte-identical token streams, pinned
// by differential tests and fuzzing), with the per-byte decision
// flattened into the internal/fused action tables and long self-loop
// runs skipped in bulk. Streamer fields are hoisted into locals for the
// duration of a chunk and written back at every exit.

// feedFusedSmall is the single-table fast path: one packed word per
// (state, class) carries the next state, an accel flag and the action,
// so the loop is one table load and one predictable branch per byte.
// For k ≤ 1 the states are A's, run undelayed (the word folds Fig. 5's
// one-byte lookahead into the transition for the current byte). For
// k ≥ 2 they are the minimized packed product, which folds B and A's
// delay into the state: a token decided on byte i ends k−1 bytes before
// it, and the loop keeps no per-byte ring. The chunk's first k bytes
// make A consume the previous chunk's delayed bytes, which join the
// carry as they go; the chunk's last k bytes become the delayed bytes
// at the exit.
func (s *Streamer) feedFusedSmall(chunk []byte, emit EmitFunc) {
	e := s.fe
	words := e.Words
	infos := e.Infos
	accelIdx := e.AccelIdx
	classOf := &e.ClassOf // 256-entry class map: L1-resident, one load per byte
	nc := e.NumClasses
	k := e.K
	q := s.qa
	f := s.filled
	base := s.pos + f // stream offset of chunk[0]
	n := len(chunk)
	// A token decided on byte i ends at base+i+endAdj: after the byte for
	// k=0, before it for k=1, k−1 bytes before it for a packed product.
	endAdj := 1 - k
	// Accel tallies stay in locals for the chunk and fold into the
	// counters at the exits (before stop(), which retires the block).
	attempts, skipped := 0, 0
	i := 0
	if k >= 2 {
		for lim := min(n, k); i < lim; i++ {
			w := words[q*nc+int(classOf[chunk[i]])]
			q = int(w & fused.StateMask)
			if j := i - (k - f); j >= 0 {
				// A consumed a delayed byte of an earlier chunk: keep it
				// for the pending token's text.
				s.carry = append(s.carry, s.ring[j])
			}
			act := w >> fused.SmallActShift
			if act == fused.SActContinue {
				continue // accel words too: no skipping over the ring
			}
			if act == fused.SActDead {
				s.dieFused(q, base+i+endAdj, attempts, skipped)
				return
			}
			s.pos = base + i + endAdj
			s.emitToken(emit, int(act-fused.SActEmitBase), chunk, base)
		}
	}
	for ; i < n; i++ {
		w := words[q*nc+int(classOf[chunk[i]])]
		q = int(w & fused.StateMask)
		if w <= fused.StateMask {
			continue // plain continue: no action, no accel
		}
		if w&fused.SmallAccelBit != 0 {
			// q self-loops on a byte class: the state, pending token, and
			// offsets are invariant across the run, so jump to its last
			// byte whatever its length — the scan is cheaper per byte
			// than the loop, and the run's interior never re-enters this
			// branch.
			if i+1 < n {
				j := infos[accelIdx[q]].ScanRun(chunk, i+1)
				attempts++
				skipped += j - i - 1
				i = j - 1
			}
			continue
		}
		act := w >> fused.SmallActShift
		if act == fused.SActDead {
			s.dieFused(q, base+i+endAdj, attempts, skipped)
			return
		}
		s.pos = base + i + endAdj
		s.emitToken(emit, int(act-fused.SActEmitBase), chunk, base)
	}
	s.qa = q
	if k >= 2 {
		s.keepDelayed(chunk)
	}
	s.pos = base + n - s.filled
	s.noteAccel(attempts, skipped)
	s.saveCarry(chunk, base)
}

// dieFused stops a single-table stream whose input died at A position
// pos. A packed product only reaches a dead action once A steps, so its
// delay ring is full.
func (s *Streamer) dieFused(q, pos, attempts, skipped int) {
	s.qa = q
	s.pos = pos
	if s.k >= 2 {
		s.filled = s.k
	}
	s.noteAccel(attempts, skipped)
	s.stop()
}

// keepDelayed leaves in the ring, in stream order from index 0, the
// stream's last min(k, filled+len(b)) bytes once b is fed: the bytes a
// packed product has folded into its state but A has not consumed.
func (s *Streamer) keepDelayed(b []byte) {
	k := s.k
	if len(b) >= k {
		copy(s.ring, b[len(b)-k:])
		s.filled = k
		return
	}
	keep := min(s.filled, k-len(b))
	copy(s.ring, s.ring[s.filled-keep:s.filled])
	copy(s.ring[keep:], b)
	s.filled = keep + len(b)
}
