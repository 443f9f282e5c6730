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

// feedFusedGeneral is the k ≥ 2 fast path over the eager TeDFA: B and A
// step their own flat tables (independent loads; B on the current byte,
// A on the byte k positions back via the power-of-two delay ring) and
// the maximality + dead + rule decisions collapse into one action word
// indexed by the (q_A, s_B) pair.
func (s *Streamer) feedFusedGeneral(chunk []byte, emit EmitFunc) {
	e := s.fe
	at := s.m.DFA.Trans
	bt := e.TeTrans
	act := e.Act
	nS := e.TeStates
	classOf := &e.ClassOf // shared A/B class map, hoisted for the loop
	nc := e.NumClasses
	gInfos := e.Infos
	gAccelIdx := e.AccelIdx
	ring := s.ring
	mask := len(ring) - 1 // the ring is power-of-two sized
	k := s.k
	qa, sb, h, pos := s.qa, s.s, s.head, s.pos
	base := pos + s.filled // stream offset of chunk[0]
	n := len(chunk)
	i := 0
	// Fill phase: only B steps until the ring holds k bytes (happens
	// once per stream).
	for ; i < n && s.filled < k; i++ {
		b := chunk[i]
		sb = int(bt[sb*nc+int(classOf[b])])
		ring[(h+s.filled)&mask] = b
		s.filled++
	}
	// Accel attempts are suppressed below noAccel: briefly mid-run after a
	// failed probe, and for long stretches when the profitability governor
	// decides attempts are not paying (attempts roughly double the work
	// over the run they scan, so inputs dominated by short fragmented runs
	// are stepped, not scanned). Suppressed stretches run a copy of the
	// loop with the accel arm compiled out, so an accel-flagged continue
	// word costs the same as a plain one; the governor's exponential
	// backoff makes hopeless inputs converge to that loop while regime
	// changes are still noticed.
	noAccel := 0
	attempts, ringFails, skipped := 0, 0, 0
	pausePen := 1 << 12
	for i < n {
		if lim := noAccel - 1; i < lim {
			if lim > n {
				lim = n
			}
			for ; i < lim; i++ {
				b := chunk[i]
				sb = int(bt[sb*nc+int(classOf[b])])
				a := ring[h]
				ring[(h+k)&mask] = b
				h = (h + 1) & mask
				if pos < base {
					s.carry = append(s.carry, a)
				}
				qa = int(at[qa*nc+int(classOf[a])])
				pos++
				w := act[qa*nS+sb] & fused.GActionBit
				if w == fused.GContinue {
					continue
				}
				if w == fused.GDead {
					s.qa, s.s, s.head, s.pos = qa, sb, h, pos
					s.noteAccel(attempts, skipped)
					s.stop()
					return
				}
				s.pos = pos
				s.emitToken(emit, int(w-fused.GEmitBase), chunk, base)
				qa = s.m.DFA.Start // emitToken restarted A
			}
			continue
		}
		// Active loop: runs until an attempt fails (which sets noAccel and
		// falls back to the suppressed loop above). The dispatch guarantees
		// i+1 ≥ noAccel throughout, so the accel arm does not re-check it.
		for ; i < n; i++ {
			b := chunk[i]
			sb = int(bt[sb*nc+int(classOf[b])]) // B is k symbols ahead of A
			a := ring[h]
			ring[(h+k)&mask] = b
			h = (h + 1) & mask
			if pos < base {
				// a came from a previous chunk: preserve it for the
				// pending token's text.
				s.carry = append(s.carry, a)
			}
			qa = int(at[qa*nc+int(classOf[a])])
			pos++
			w := act[qa*nS+sb]
			if w == fused.GContinue {
				continue
			}
			if w&fused.GAccelBit != 0 {
				// The (qa, sb) pair self-loops on a byte class. A consumes
				// the ring before the scanned bytes, so the run is only
				// skippable when the ring is inside the class too — which
				// it is whenever both machines are already mid-run.
				if i+1 >= n {
					continue
				}
				if (attempts >= 64 && skipped < attempts*8) ||
					(ringFails >= 256 && skipped < ringFails*2) {
					noAccel = i + pausePen
					if pausePen < 1<<20 {
						pausePen <<= 1
					}
					s.noteAccel(attempts, skipped)
					if !s.noObs {
						s.c.AccelBackoffs++
						s.c.FusedFallbacks++
					}
					attempts, ringFails, skipped = 0, 0, 0
					i++
					break
				}
				inf := &gInfos[gAccelIdx[qa*nS+sb]]
				if bad := ringBad(inf, ring, h, mask, k); bad >= 0 {
					// A still has an out-of-class byte to consume;
					// cheap to detect, so skip the scan entirely and
					// retry once that byte has left the ring.
					ringFails++
					if !s.noObs {
						s.c.FusedFallbacks++
					}
					noAccel = i + 2 + bad
					i++
					break
				}
				attempts++ // scans cost O(run); ringBad rejects only O(k)
				j := inf.ScanRun(chunk, i+1)
				r := j - (i + 1)
				// Any run long enough to refill the ring is worth
				// skipping: the scan is already paid, and the run's
				// interior then never re-enters this branch.
				if r >= k {
					if pos < base {
						cnt := base - pos
						if cnt > r {
							cnt = r
						}
						for t := 0; t < cnt; t++ {
							s.carry = append(s.carry, ring[(h+t)&mask])
						}
					}
					pos += r
					skipped += r
					// The ring now holds the run's last k bytes.
					copy(ring[:k], chunk[j-k:j])
					h = 0
					i = j - 1
					continue
				}
				noAccel = j
				if !s.noObs {
					s.c.FusedFallbacks++
				}
				i++
				break
			}
			if w == fused.GDead {
				s.qa, s.s, s.head, s.pos = qa, sb, h, pos
				s.noteAccel(attempts, skipped)
				s.stop()
				return
			}
			s.pos = pos
			s.emitToken(emit, int(w-fused.GEmitBase), chunk, base)
			qa = s.m.DFA.Start // emitToken restarted A
		}
	}
	s.qa, s.s, s.head, s.pos = qa, sb, h, pos
	s.noteAccel(attempts, skipped)
	s.saveCarry(chunk, base)
}

// ringBad returns the highest ring index (in consumption order) holding
// a byte outside the accel class, or -1 when all k delayed bytes are
// inside it. The latter is a precondition for bulk skipping: A consumes
// the ring during the skip while the skip assumes its state cannot move.
func ringBad(inf *fused.AccelInfo, ring []byte, h, mask, k int) int {
	for t := k - 1; t >= 0; t-- {
		if !inf.Contains(ring[(h+t)&mask]) {
			return t
		}
	}
	return -1
}
