// Package obs is the always-on observability layer: cheap counters every
// Streamer maintains while tokenizing, aggregated into snapshots by the
// owning Tokenizer. The design constraint is that the per-byte loops pay
// nothing: every counter update happens per chunk, per token, or per
// accel event, on plain (non-atomic) uint64 fields owned by the stream's
// goroutine. Cross-stream aggregation copies and merges whole counter
// blocks under the tokenizer's registry lock — no atomics anywhere in the
// feed path.
package obs

import (
	"fmt"
	"math"
	"math/bits"
)

// LatencyBuckets is the number of power-of-two emission-latency buckets:
// bucket 0 holds latency 0, bucket i ≥ 1 holds [2^(i-1), 2^i). The last
// bucket additionally absorbs everything ≥ 2^(LatencyBuckets-1).
const LatencyBuckets = 16

// Counters is one stream's (or one aggregate's) counter block. All
// fields are plain integers updated without synchronization by the
// goroutine feeding the stream; Merge folds blocks together for
// tokenizer-level snapshots.
type Counters struct {
	// Streams counts streams started (always 1 on a live Streamer's own
	// block; sums across streams in aggregates).
	Streams uint64
	// StreamsDone counts streams that finished (Close, dead input, or
	// explicit discard).
	StreamsDone uint64
	// BytesIn is the total bytes fed (including any untokenizable
	// remainder the engine inspected before stopping).
	BytesIn uint64
	// Chunks counts Feed calls that carried at least one byte.
	Chunks uint64
	// TokensOut is the total tokens emitted.
	TokensOut uint64
	// TokensByRule is TokensOut split by rule id.
	TokensByRule []uint64

	// AccelAttempts counts bulk run-skip scans started by the fused
	// engine's accel states.
	AccelAttempts uint64
	// AccelSkippedBytes is how many input bytes those scans let the
	// engine skip without stepping the automata.
	AccelSkippedBytes uint64
	// AccelBackoffs counts profitability-governor activations (the
	// engine judged accel attempts were not paying and suppressed them
	// for an exponentially growing stretch).
	AccelBackoffs uint64
	// FusedFallbacks counts drops from the accel-active fused loop to
	// its suppressed copy: failed ring checks, runs too short to skip,
	// and governor backoffs.
	FusedFallbacks uint64

	// CarryMax is the high-water mark (bytes) of the carry buffer — the
	// pending token prefix retained across chunk boundaries. Bounded by
	// the longest token plus the K-byte lookahead, never by the stream.
	CarryMax uint64
	// RingMax is the high-water mark (bytes) of the K-byte delay ring
	// (0 for engines that need no ring). Never exceeds K.
	RingMax uint64

	// EmitLatency histograms, per emitted token, how many bytes of input
	// beyond the token's end the engine had consumed when the token was
	// confirmed maximal (pow2 buckets; the paper's bound is K).
	EmitLatency [LatencyBuckets]uint64

	// ParallelRuns.. count speculative parallel tokenization at the
	// tokenizer level (streams never touch these).
	ParallelRuns      uint64
	ParallelSegments  uint64
	ParallelSynced    uint64
	ParallelReScanned uint64

	// BPE* count a vocabulary engine's piece encoding, which runs on the
	// pretokenizer stream's emissions and counts into that stream's
	// block: pieces encoded (one per pretokenizer token), pieces the
	// backtracking search certified after a rejected greedy scan,
	// pieces that ran the merge-loop safety net, and the piece cache's
	// hits, misses and wholesale-reset evictions. Zero on grammar
	// engines.
	BPEPieces         uint64
	BPEBacktracks     uint64
	BPEFallbacks      uint64
	BPECacheHits      uint64
	BPECacheMisses    uint64
	BPECacheEvictions uint64
}

// ObserveLatency records one token's emission latency in bytes.
func (c *Counters) ObserveLatency(lat uint64) {
	i := bits.Len64(lat)
	if i >= LatencyBuckets {
		i = LatencyBuckets - 1
	}
	c.EmitLatency[i]++
}

// NoteCarry raises the carry high-water mark.
func (c *Counters) NoteCarry(n int) {
	if v := uint64(n); v > c.CarryMax {
		c.CarryMax = v
	}
}

// NoteRing raises the delay-ring high-water mark.
func (c *Counters) NoteRing(n int) {
	if v := uint64(n); v > c.RingMax {
		c.RingMax = v
	}
}

// Reset zeroes every counter in place, keeping the TokensByRule backing
// array (zeroed) so pooled streams restart without reallocating it.
func (c *Counters) Reset() {
	rules := c.TokensByRule
	for i := range rules {
		rules[i] = 0
	}
	*c = Counters{TokensByRule: rules}
}

// Merge folds o into c: sums for counts, max for high-water marks.
func (c *Counters) Merge(o *Counters) {
	c.Streams += o.Streams
	c.StreamsDone += o.StreamsDone
	c.BytesIn += o.BytesIn
	c.Chunks += o.Chunks
	c.TokensOut += o.TokensOut
	if len(o.TokensByRule) > len(c.TokensByRule) {
		grown := make([]uint64, len(o.TokensByRule))
		copy(grown, c.TokensByRule)
		c.TokensByRule = grown
	}
	for i, n := range o.TokensByRule {
		c.TokensByRule[i] += n
	}
	c.AccelAttempts += o.AccelAttempts
	c.AccelSkippedBytes += o.AccelSkippedBytes
	c.AccelBackoffs += o.AccelBackoffs
	c.FusedFallbacks += o.FusedFallbacks
	if o.CarryMax > c.CarryMax {
		c.CarryMax = o.CarryMax
	}
	if o.RingMax > c.RingMax {
		c.RingMax = o.RingMax
	}
	for i, n := range o.EmitLatency {
		c.EmitLatency[i] += n
	}
	c.ParallelRuns += o.ParallelRuns
	c.ParallelSegments += o.ParallelSegments
	c.ParallelSynced += o.ParallelSynced
	c.ParallelReScanned += o.ParallelReScanned
	c.BPEPieces += o.BPEPieces
	c.BPEBacktracks += o.BPEBacktracks
	c.BPEFallbacks += o.BPEFallbacks
	c.BPECacheHits += o.BPECacheHits
	c.BPECacheMisses += o.BPECacheMisses
	c.BPECacheEvictions += o.BPECacheEvictions
}

// Clone returns an independent copy (the TokensByRule slice is the only
// indirection).
func (c *Counters) Clone() Counters {
	out := *c
	if c.TokensByRule != nil {
		out.TokensByRule = append([]uint64(nil), c.TokensByRule...)
	}
	return out
}

// CloneInto copies c into dst, reusing dst's TokensByRule backing array
// when it is large enough — the allocation-free path stream retirement
// uses (a fresh slice per retire would be the pooled serving loop's
// only garbage).
func (c *Counters) CloneInto(dst *Counters) {
	rules := dst.TokensByRule
	if cap(rules) < len(c.TokensByRule) {
		rules = make([]uint64, len(c.TokensByRule))
	} else {
		rules = rules[:len(c.TokensByRule)]
	}
	copy(rules, c.TokensByRule)
	*dst = *c
	dst.TokensByRule = rules
}

// MaxLatency returns the upper edge of the highest non-empty latency
// bucket (0 when no tokens were emitted). Because buckets are pow2
// ranges this is an upper bound on the true maximum, tight for the
// constant-K steady state.
func (c *Counters) MaxLatency() uint64 {
	for i := LatencyBuckets - 1; i > 0; i-- {
		if c.EmitLatency[i] != 0 {
			return uint64(1)<<i - 1
		}
	}
	return 0
}

// LatencyQuantile returns an upper bound on the q-quantile (0 < q ≤ 1)
// of the emission-latency distribution: the upper edge of the histogram
// bucket the quantile falls in, 0 when no tokens were recorded. Serving
// dashboards read p50/p99 from it; both are bounded by K in the
// constant-K steady state.
func (c *Counters) LatencyQuantile(q float64) uint64 {
	var total uint64
	for _, n := range c.EmitLatency {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// The smallest rank whose cumulative count covers q of the mass.
	need := uint64(math.Ceil(q * float64(total)))
	if need < 1 {
		need = 1
	}
	var cum uint64
	for i, n := range c.EmitLatency {
		cum += n
		if cum >= need {
			if i == 0 {
				return 0
			}
			return uint64(1)<<i - 1
		}
	}
	return uint64(1)<<(LatencyBuckets-1) - 1
}

// LatencyBucketLabel names bucket i: "0", "1", "2-3", ... "≥16384".
func LatencyBucketLabel(i int) string {
	switch {
	case i <= 0:
		return "0"
	case i == 1:
		return "1"
	case i == LatencyBuckets-1:
		return fmt.Sprintf(">=%d", 1<<(i-1))
	default:
		return fmt.Sprintf("%d-%d", 1<<(i-1), 1<<i-1)
	}
}
