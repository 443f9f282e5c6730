package streamtok

import (
	"encoding/json"
	"expvar"
	"fmt"
	"strings"

	"streamtok/internal/obs"
)

// LatencyBuckets is the number of power-of-two emission-latency buckets
// in Stats.EmitLatency: bucket 0 holds latency 0, bucket i ≥ 1 holds
// latencies in [2^(i-1), 2^i) bytes, and the last bucket additionally
// absorbs everything larger.
const LatencyBuckets = obs.LatencyBuckets

// LatencyBucketLabel names EmitLatency bucket i: "0", "1", "2-3", ...,
// ">=16384".
func LatencyBucketLabel(i int) string { return obs.LatencyBucketLabel(i) }

// Stats is a snapshot of the always-on observability counters. Every
// Streamer maintains them while tokenizing — per chunk, per token, and
// per accel event, never per byte — so snapshots are free to take and
// the counters cost nothing to keep on.
//
// Obtain one from Streamer.Stats (one stream) or
// Tokenizer.AggregateStats (every stream the tokenizer started). String
// renders a human-readable report; MarshalJSON the machine-readable one
// (the same rendering cmd/streamtok -stats uses).
type Stats struct {
	// Streams counts streams started; StreamsDone those that finished
	// (Close, dead input, or discard).
	Streams     uint64
	StreamsDone uint64
	// BytesIn is the total bytes fed, in Chunks non-empty Feed calls.
	BytesIn uint64
	Chunks  uint64
	// TokensOut is the total tokens emitted; TokensByRule splits it by
	// rule id, with RuleNames naming each index.
	TokensOut    uint64
	TokensByRule []uint64
	RuleNames    []string

	// AccelAttempts counts bulk run-skip scans started by the fused
	// engine's accel states; AccelSkippedBytes is how much input they let
	// the engine skip without stepping the automata. AccelBackoffs and
	// FusedFallbacks always read 0: they counted the profitability
	// governor of a retired fused loop, and stay only because the cursor's
	// counter layout, /statusz and perfbench carry them.
	AccelAttempts     uint64
	AccelSkippedBytes uint64
	AccelBackoffs     uint64
	FusedFallbacks    uint64

	// CarryMax and RingMax are high-water marks in bytes of the carry
	// buffer (pending token prefix spanning chunks) and the K-byte delay
	// ring. RingMax never exceeds K; CarryMax is bounded by the longest
	// token plus K, never by the stream length.
	CarryMax uint64
	RingMax  uint64

	// EmitLatency histograms, per emitted token, how many bytes of input
	// beyond the token's end had been consumed when the token was
	// confirmed maximal. The paper bounds it by K (Close-time drains emit
	// with less).
	EmitLatency [LatencyBuckets]uint64

	// BPE counters, nonzero only on vocabulary tokenizers. BPEPieces is
	// how many pretokenizer pieces the vocab stage encoded.
	// BPEBacktracks counts pieces whose greedy scan the local-validity
	// check rejected and the backtracking search then certified;
	// BPEFallbacks counts pieces that ran the exact merge loop (the
	// search spent its budget or found nothing). The two are disjoint,
	// and only cache misses are either. The cache trio describes the
	// piece-encoding memo: hits (single-byte pieces included — the byte
	// table is the degenerate always-warm cache), misses (uncacheable
	// oversize pieces included), and evicted entries, each one replaced
	// by an insert into its full set or dropped by a sweep of the full
	// spill arenas. Every piece is exactly one hit or one miss, so
	// BPECacheHits+BPECacheMisses == BPEPieces.
	BPEPieces         uint64
	BPEBacktracks     uint64
	BPEFallbacks      uint64
	BPECacheHits      uint64
	BPECacheMisses    uint64
	BPECacheEvictions uint64
}

// statsFrom converts an internal counter block into the public snapshot,
// attaching rule names and padding the per-rule slice to the grammar.
func (t *Tokenizer) statsFrom(c obs.Counters) Stats {
	byRule := make([]uint64, len(t.ruleNames))
	copy(byRule, c.TokensByRule)
	return Stats{
		Streams:           c.Streams,
		StreamsDone:       c.StreamsDone,
		BytesIn:           c.BytesIn,
		Chunks:            c.Chunks,
		TokensOut:         c.TokensOut,
		TokensByRule:      byRule,
		RuleNames:         append([]string(nil), t.ruleNames...),
		AccelAttempts:     c.AccelAttempts,
		AccelSkippedBytes: c.AccelSkippedBytes,
		AccelBackoffs:     c.AccelBackoffs,
		FusedFallbacks:    c.FusedFallbacks,
		CarryMax:          c.CarryMax,
		RingMax:           c.RingMax,
		EmitLatency:       c.EmitLatency,
		BPEPieces:         c.BPEPieces,
		BPEBacktracks:     c.BPEBacktracks,
		BPEFallbacks:      c.BPEFallbacks,
		BPECacheHits:      c.BPECacheHits,
		BPECacheMisses:    c.BPECacheMisses,
		BPECacheEvictions: c.BPECacheEvictions,
	}
}

// AggregateStats merges the counters of every stream this tokenizer
// started: finished streams (Close, dead input, Discard) exactly, and
// still-live streams as an instantaneous approximation — their counters
// are read without synchronizing with the feeding goroutine, so take
// authoritative aggregates after the streams close.
func (t *Tokenizer) AggregateStats() Stats {
	return t.statsFrom(t.eng.AggregateCounters())
}

// Stats snapshots this stream's own counters. Like Feed it must be
// called by the stream's owner, not concurrently with Feed or Close.
// The counters survive Close; Reset and release start them over.
func (s *Streamer) Stats() Stats {
	return s.tok.statsFrom(s.s.StreamCounters())
}

// LatencyQuantile returns an upper bound on the q-quantile (0 < q ≤ 1)
// of the emission-latency distribution: the upper edge of the histogram
// bucket the quantile falls in, 0 when no tokens were emitted. The
// paper bounds every steady-state emission by K, so p50 and p99 agree
// with MaxLatency on long streams; the serving layer's /statusz reads
// them from here.
func (s *Stats) LatencyQuantile(q float64) uint64 {
	c := obs.Counters{EmitLatency: s.EmitLatency}
	return c.LatencyQuantile(q)
}

// MaxLatency returns the upper edge of the highest non-empty EmitLatency
// bucket (0 when no tokens were emitted) — an upper bound on the worst
// emission latency observed, tight in the constant-K steady state.
func (s *Stats) MaxLatency() uint64 {
	for i := LatencyBuckets - 1; i > 0; i-- {
		if s.EmitLatency[i] != 0 {
			return uint64(1)<<i - 1
		}
	}
	return 0
}

// String renders the snapshot as a human-readable multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "streams:      %d started, %d done\n", s.Streams, s.StreamsDone)
	fmt.Fprintf(&b, "bytes in:     %d in %d chunks\n", s.BytesIn, s.Chunks)
	fmt.Fprintf(&b, "tokens out:   %d\n", s.TokensOut)
	for i, n := range s.TokensByRule {
		name := ""
		if i < len(s.RuleNames) {
			name = s.RuleNames[i]
		}
		fmt.Fprintf(&b, "  rule %-3d %-14s %d\n", i, name, n)
	}
	fmt.Fprintf(&b, "accel:        %d attempts, %d bytes skipped, %d backoffs, %d fused fallbacks\n",
		s.AccelAttempts, s.AccelSkippedBytes, s.AccelBackoffs, s.FusedFallbacks)
	fmt.Fprintf(&b, "high water:   carry %d B, ring %d B\n", s.CarryMax, s.RingMax)
	fmt.Fprintf(&b, "emit latency: max %d B past token end\n", s.MaxLatency())
	for i, n := range s.EmitLatency {
		if n != 0 {
			fmt.Fprintf(&b, "  %-8s %d\n", LatencyBucketLabel(i), n)
		}
	}
	if s.BPEPieces > 0 {
		fmt.Fprintf(&b, "bpe:          %d pieces, %d backtracks, %d fallbacks, cache %d hits / %d misses / %d evictions\n",
			s.BPEPieces, s.BPEBacktracks, s.BPEFallbacks, s.BPECacheHits, s.BPECacheMisses, s.BPECacheEvictions)
	}
	return b.String()
}

// MarshalJSON renders the snapshot with stable snake_case keys; this is
// the rendering cmd/streamtok -stats json and expvar publication share.
func (s Stats) MarshalJSON() ([]byte, error) {
	type ruleCount struct {
		Rule  int    `json:"rule"`
		Name  string `json:"name,omitempty"`
		Count uint64 `json:"count"`
	}
	rules := make([]ruleCount, len(s.TokensByRule))
	for i, n := range s.TokensByRule {
		rules[i] = ruleCount{Rule: i, Count: n}
		if i < len(s.RuleNames) {
			rules[i].Name = s.RuleNames[i]
		}
	}
	return json.Marshal(struct {
		Streams           uint64      `json:"streams"`
		StreamsDone       uint64      `json:"streams_done"`
		BytesIn           uint64      `json:"bytes_in"`
		Chunks            uint64      `json:"chunks"`
		TokensOut         uint64      `json:"tokens_out"`
		TokensByRule      []ruleCount `json:"tokens_by_rule"`
		AccelAttempts     uint64      `json:"accel_attempts"`
		AccelSkippedBytes uint64      `json:"accel_skipped_bytes"`
		AccelBackoffs     uint64      `json:"accel_backoffs"`
		FusedFallbacks    uint64      `json:"fused_fallbacks"`
		CarryMax          uint64      `json:"carry_max"`
		RingMax           uint64      `json:"ring_max"`
		EmitLatency       []uint64    `json:"emit_latency"`
		MaxLatency        uint64      `json:"max_latency"`
		BPEPieces         uint64      `json:"bpe_pieces"`
		BPEBacktracks     uint64      `json:"bpe_backtracks"`
		BPEFallbacks      uint64      `json:"bpe_fallbacks"`
		BPECacheHits      uint64      `json:"bpe_cache_hits"`
		BPECacheMisses    uint64      `json:"bpe_cache_misses"`
		BPECacheEvictions uint64      `json:"bpe_cache_evictions"`
	}{
		Streams: s.Streams, StreamsDone: s.StreamsDone,
		BytesIn: s.BytesIn, Chunks: s.Chunks,
		TokensOut: s.TokensOut, TokensByRule: rules,
		AccelAttempts: s.AccelAttempts, AccelSkippedBytes: s.AccelSkippedBytes,
		AccelBackoffs: s.AccelBackoffs, FusedFallbacks: s.FusedFallbacks,
		CarryMax: s.CarryMax, RingMax: s.RingMax,
		EmitLatency: s.EmitLatency[:], MaxLatency: s.MaxLatency(),
		BPEPieces: s.BPEPieces, BPEBacktracks: s.BPEBacktracks, BPEFallbacks: s.BPEFallbacks,
		BPECacheHits: s.BPECacheHits, BPECacheMisses: s.BPECacheMisses,
		BPECacheEvictions: s.BPECacheEvictions,
	})
}

// statsVar adapts a Stats snapshot to expvar.Var, whose contract is
// that String returns valid JSON.
type statsVar struct{ s Stats }

func (v statsVar) String() string {
	b, err := json.Marshal(v.s)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Publish registers this snapshot in the process-wide expvar registry
// under name, rendering as the snapshot's JSON. Like expvar.Publish it
// panics if name is taken, so publish once per process; for a variable
// that tracks the tokenizer live, use Tokenizer.PublishStats.
func (s Stats) Publish(name string) { expvar.Publish(name, statsVar{s}) }

// PublishStats registers a live expvar under name: every read
// re-aggregates the tokenizer's counters at that moment.
func (t *Tokenizer) PublishStats(name string) {
	expvar.Publish(name, expvar.Func(func() any { return t.AggregateStats() }))
}

// EngineInfo describes the execution engine a Tokenizer selected: the
// mode name, the lookahead bound K, how many states carry bulk run-skip
// acceleration, the memory footprint of the precomputed tables, and
// whether the token-extension DFA is determinized lazily.
type EngineInfo struct {
	// Mode is "fused-k<K>" for the single-table fused engine ("fused-k0",
	// "fused-k1", and "fused-k2" and up for a packed K ≥ 2 product), or
	// "split-k0", "split-k1", "split-general", or "split-general-lazy"
	// for the interpreter loops (a K ≥ 2 grammar that does not pack runs
	// split-general). All modes emit byte-identical token streams.
	Mode string
	// K is the lookahead bound (the grammar's max-TND).
	K int
	// AccelStates is how many fused states were marked for bulk run
	// skipping (0 when the fused engine is off).
	AccelStates int
	// TableBytes is the memory footprint of the precomputed automata and
	// action tables — the entire stream-independent state apart from the
	// input buffer and the K-byte delay ring.
	TableBytes int
	// LazyTeDFA reports whether the token-extension DFA is determinized
	// on demand: its eager expansion passed Options.MaxTeDFAStates
	// states (4096 when 0), so each stream grows its own copy of the
	// TeDFA, uncapped, and TableBytes does not include it.
	LazyTeDFA bool
}

// Engine reports the execution engine this tokenizer selected. For a
// vocabulary source the mode is "bpe+" plus the pretokenizer engine's
// mode, K and the accel count are the pretokenizer's, and TableBytes
// adds the vocab DFA table to the pretokenizer's tables.
func (t *Tokenizer) Engine() EngineInfo {
	mode := t.eng.EngineMode()
	return EngineInfo{
		Mode:        mode,
		K:           t.eng.K(),
		AccelStates: t.eng.AccelStates(),
		TableBytes:  t.eng.TableBytes(),
		LazyTeDFA:   strings.HasSuffix(mode, "-lazy"),
	}
}

// String renders the engine description on one line.
func (e EngineInfo) String() string {
	lazy := ""
	if e.LazyTeDFA {
		lazy = ", lazy TeDFA"
	}
	return fmt.Sprintf("%s (K=%d, accel states %d, tables %d B%s)",
		e.Mode, e.K, e.AccelStates, e.TableBytes, lazy)
}

// MarshalJSON renders the engine description with stable snake_case
// keys (shared by tnd -json and cmd/streamtok -stats).
func (e EngineInfo) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Mode        string `json:"mode"`
		K           int    `json:"k"`
		AccelStates int    `json:"accel_states"`
		TableBytes  int    `json:"table_bytes"`
		LazyTeDFA   bool   `json:"lazy_tedfa"`
	}{e.Mode, e.K, e.AccelStates, e.TableBytes, e.LazyTeDFA})
}
