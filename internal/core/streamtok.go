// Package core implements StreamTok, the paper's backtracking-free
// streaming tokenization algorithm: the Fig. 5 specializations for
// max-TND ≤ 1 and the general Fig. 6 algorithm for max-TND = K < ∞, with
// correct end-of-stream draining for finite inputs.
//
// The engine has a push interface (Feed/Close) so it can sit behind any
// stream source, plus io.Reader-based drivers in stream.go. Memory use is
// independent of the stream length: a K-byte delay ring, the precomputed
// automata/tables, and a carry buffer holding only the prefix of the
// current (unemitted) token that is no longer in the caller's chunk.
// Tokens that fall entirely inside one chunk are emitted as zero-copy
// subslices of it.
package core

import (
	"fmt"
	"math/bits"
	"sync"

	"streamtok/internal/analysis"
	"streamtok/internal/fused"
	"streamtok/internal/obs"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// EmitFunc receives each maximal token as it is confirmed. text is the
// token's bytes and is only valid until the next call into the tokenizer.
type EmitFunc func(tok token.Token, text []byte)

// BatchFunc receives batches of confirmed maximal tokens (FeedBatch /
// CloseBatch). The slice is the streamer's reused batch buffer: it is
// only valid until the callback returns and must be copied to retain.
// Batched sinks get offsets, not text — callers that hold the input (or
// index into it) slice it themselves, and skip one indirect call plus
// the text-assembly work per token.
type BatchFunc func(toks []token.Token)

// batchCap bounds the reused batch buffer: the hot loops flush to the
// sink whenever it fills (so one Feed of a token-dense chunk still uses
// bounded memory) and at every chunk boundary.
const batchCap = 512

// Tokenizer is a compiled, reusable StreamTok tokenizer for one grammar.
// Its tables are immutable and it is safe for concurrent use; each
// stream gets its own Streamer. The tokenizer additionally keeps an
// always-on observability registry (internal/obs): every Streamer's
// counters fold into it when the stream finishes, and
// AggregateCounters snapshots the aggregate at any time.
type Tokenizer struct {
	m    *tokdfa.Machine
	k    int
	te   *tepath.Table
	lazy *tepath.Lazy
	k1   *tepath.K1Table
	fe   *fused.Engine // fused fast engine, nil → split loops

	noObs bool // benchmark-only: skip the observability counters

	// pool recycles retired Streamers (AcquireStreamer/ReleaseStreamer):
	// a warm stream reuses the previous stream's carry buffer, delay
	// ring, scratch, batch buffer, and per-rule counters, so the
	// steady-state serving path performs no per-stream allocations.
	pool sync.Pool

	obsMu   sync.Mutex
	live    map[*Streamer]struct{} // streams not yet retired
	retired obs.Counters           // folded counters of finished streams
}

// Streamer is a StreamTok instance processing one stream. It is created
// by a Tokenizer and is not safe for concurrent use.
type Streamer struct {
	m    *tokdfa.Machine
	k    int
	te   *tepath.Table     // general mode, eager TeDFA (k >= 2)
	eval *tepath.Evaluator // general mode, lazy TeDFA (k >= 2)
	k1   *tepath.K1Table   // Fig. 5 mode (k == 1)
	fe   *fused.Engine     // fused fast engine, nil → split loops
	tok  *Tokenizer        // owner, for the observability registry

	c          obs.Counters // always-on counters; plain fields, owner-updated
	noObs      bool         // benchmark-only: skip counter updates
	done       bool         // counters already folded into the tokenizer
	latK       int          // EmitLatency bucket for latency K (every Feed-path emission)
	tailTokens uint64       // tokens the Close drain emitted (latency < K)

	qa       int    // current state of the tokenization DFA A
	s        int    // current state of the token-extension DFA B
	ring     []byte // delay ring: bytes B has consumed but A has not
	ringMask int    // len(ring)-1 when the ring is power-of-two sized (fused general mode), else 0
	head     int    // ring read index
	filled   int    // bytes currently in the ring (≤ k)
	prevOK   bool   // split k==1 mode: the one-byte delay slot is occupied
	prev     byte   // split k==1 mode: the delayed byte

	// ringScratch backs ringContents so the Close drain does not
	// allocate per final-position check.
	ringScratch []byte

	// snap is the reused snapshot block retire folds through, so pooled
	// stream turnover stays allocation-free.
	snap obs.Counters

	// inherited is the counter baseline a resumed stream adopted from
	// its checkpoint (hasInherited gates it). The stream's own block is
	// cumulative across suspend/resume — per-stream views continue
	// seamlessly — but aggregate folds subtract this baseline, so a
	// same-process suspend/resume cycle counts each byte and token once
	// in the tokenizer aggregate (the suspended segment folded its
	// share when it was released).
	inherited    obs.Counters
	hasInherited bool

	// carry holds the pending token's bytes that are no longer available
	// in the caller's chunk (token prefixes spanning chunk boundaries).
	carry   []byte
	startP  int // stream offset of the pending token's first byte
	pos     int // stream offset A will consume next (= bytes A consumed)
	stopped bool
	rest    int // offset of the first untokenized byte once stopped

	// batch is the reused token buffer batched emission (FeedBatch /
	// CloseBatch) appends into; batchSink, non-nil only while one of
	// those calls is running, receives it when it fills and at the chunk
	// boundary.
	batch     []token.Token
	batchSink BatchFunc
}

// UnboundedError reports that a grammar cannot be tokenized by StreamTok
// because its maximum token neighbor distance is unbounded.
type UnboundedError struct {
	Grammar string
}

func (e *UnboundedError) Error() string {
	return fmt.Sprintf("streamtok: grammar %q has unbounded max token neighbor distance", e.Grammar)
}

// New builds a StreamTok tokenizer. It runs the static analysis (Fig. 3)
// and returns an *UnboundedError when TkDist(r̄) = ∞. limits bounds the
// token-extension DFA construction.
func New(m *tokdfa.Machine, limits tepath.Limits) (*Tokenizer, int, error) {
	res := analysis.Analyze(m)
	if !res.Bounded() {
		return nil, 0, &UnboundedError{Grammar: m.Grammar.String()}
	}
	t, err := NewWithK(m, res.MaxTND, limits)
	return t, res.MaxTND, err
}

// NewWithK builds a tokenizer for a known max-TND k (skipping the
// analysis). k must be an upper bound on TkDist(r̄); the algorithm is
// correct for any finite upper bound, and fastest when k is exact.
//
// For k ≥ 2 the token-extension DFA is materialized eagerly; if it
// exceeds its budget (it can be exponential in k), the tokenizer falls
// back to a lazily determinized TeDFA whose transitions are computed on
// first use per stream — same O(1) steady-state cost, memory proportional
// to the powerstates the stream actually visits.
//
// When the tables fit the fused-engine budget, the tokenizer additionally
// compiles the per-byte decision sequence into the internal/fused fast
// path (packed action tables + run-skipping accel states) and streams
// through it; the split loops remain the fallback and the ablation
// baseline (NewSplitWithK).
func NewWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	return NewWithKBudget(m, k, limits, 0)
}

// NewWithKBudget is NewWithK with an explicit fused-table byte budget
// (0 selects the 16 MB default). The budget caps every array the fused
// hot loop touches — packed/action tables, accel index, class maps, and
// the compressed A/B transition rows — so raising it lets larger grammars
// stay fused and lowering it forces the split loops earlier.
func NewWithKBudget(m *tokdfa.Machine, k int, limits tepath.Limits, fusedBudget int) (*Tokenizer, error) {
	t, err := newSplit(m, k, limits)
	if err != nil {
		return nil, err
	}
	t.fe = fused.Build(m, k, t.te, fused.Options{MaxTableBytes: fusedBudget})
	return t, nil
}

// NewSplitWithK is NewWithK without the fused fast engine (for ablation
// benchmarks and differential tests against the split loops).
func NewSplitWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	return newSplit(m, k, limits)
}

// NewNoAccelWithK builds the fused engine with accel states disabled
// (isolating action-table fusion from run skipping in ablations).
func NewNoAccelWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	t, err := newSplit(m, k, limits)
	if err != nil {
		return nil, err
	}
	t.fe = fused.Build(m, k, t.te, fused.Options{NoAccel: true})
	return t, nil
}

// NewNoObsWithK is NewWithK with the observability counters compiled
// out. It exists only so `paperbench -exp obsoverhead` can measure what
// the always-on instrumentation costs; production callers always get
// the counters.
func NewNoObsWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	t, err := NewWithK(m, k, limits)
	if err != nil {
		return nil, err
	}
	t.noObs = true
	return t, nil
}

func newSplit(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	if m.DFA.Trans == nil {
		// A machine serving from the sparse row-displacement layout is a
		// scanner (BPE vocab DFA): the streaming engines index class-table
		// rows directly and do not run on it.
		return nil, fmt.Errorf("streamtok: machine has no class transition table (sparse scanner machines cannot drive the streaming engines)")
	}
	t := &Tokenizer{m: m, k: k, live: map[*Streamer]struct{}{}}
	switch {
	case k <= 0:
		// No lookahead needed: every token is maximal at its final state.
	case k == 1:
		t.k1 = tepath.BuildK1(m)
	default:
		// Cap the eager attempt: practical grammars' TeDFAs are far
		// below this budget, and probing the full lazy limit before
		// falling back would waste seconds on exponential families.
		eagerLimits := limits
		if eagerLimits.MaxDFAStates == 0 {
			eagerLimits.MaxDFAStates = 1 << 12
		}
		te, err := tepath.Build(m, k, eagerLimits)
		if err == nil {
			t.te = te
			break
		}
		if err != tepath.ErrTooLarge {
			return nil, err
		}
		lazy, lerr := tepath.BuildLazy(m, k, limits)
		if lerr != nil {
			return nil, lerr
		}
		t.lazy = lazy
	}
	return t, nil
}

// NewLazyWithK is NewWithK but always uses the lazy TeDFA (for ablation
// benchmarks).
func NewLazyWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	t := &Tokenizer{m: m, k: k, live: map[*Streamer]struct{}{}}
	switch {
	case k <= 0:
	case k == 1:
		t.k1 = tepath.BuildK1(m)
	default:
		lazy, err := tepath.BuildLazy(m, k, limits)
		if err != nil {
			return nil, err
		}
		t.lazy = lazy
	}
	return t, nil
}

// K returns the lookahead bound the tokenizer was built with.
func (t *Tokenizer) K() int { return t.k }

// Machine returns the underlying tokenization DFA machine.
func (t *Tokenizer) Machine() *tokdfa.Machine { return t.m }

// TeDFASize returns the size of the eager token-extension DFA (0 when
// k ≤ 1 or when the lazy fallback is in use).
func (t *Tokenizer) TeDFASize() int {
	if t.te == nil {
		return 0
	}
	return t.te.NumStates()
}

// Lazy reports whether the tokenizer uses the lazily determinized TeDFA.
func (t *Tokenizer) Lazy() bool { return t.lazy != nil }

// EngineMode names the execution mode the tokenizer selected:
// "fused-k0", "fused-k1", or "fused-general" when the fused fast engine
// is active; "split-k0", "split-k1", "split-general", or
// "split-general-lazy" for the interpreted loops.
func (t *Tokenizer) EngineMode() string {
	if t.fe != nil {
		return t.fe.ModeName()
	}
	switch {
	case t.k <= 0:
		return "split-k0"
	case t.k == 1:
		return "split-k1"
	case t.lazy != nil:
		return "split-general-lazy"
	default:
		return "split-general"
	}
}

// Fused reports whether the fused fast engine is active.
func (t *Tokenizer) Fused() bool { return t.fe != nil }

// AccelStates returns how many fused states were marked for bulk run
// skipping (0 when the fused engine is off).
func (t *Tokenizer) AccelStates() int {
	if t.fe == nil {
		return 0
	}
	return t.fe.AccelStates()
}

// RingBytes returns the exact size in bytes of the delay ring each of
// this tokenizer's streams allocates: 0 when no ring is needed (k ≤ 1
// fused, or k == 0), 1 for the split k == 1 delay slot, k for the split
// general loops, and the next power of two ≥ k for the fused general
// loop (which indexes the ring with a mask). This is the per-stream
// figure resource certificates bind; the observed RingMax high-water
// mark never exceeds it.
func (t *Tokenizer) RingBytes() int {
	switch {
	case t.te != nil && t.fe != nil && t.fe.Mode == fused.ModeGeneral:
		return nextPow2(t.k)
	case t.te != nil || t.lazy != nil:
		return t.k
	case t.fe == nil && t.k == 1:
		return 1 // the split Fig. 5 one-byte delay slot
	default:
		return 0
	}
}

// AccelSlots returns how many fused states (ModeSmall) or (q_A, s_B)
// pairs (ModeGeneral) the engine has at all — the denominator of the
// accel-state coverage fraction. 0 when the fused engine is off.
func (t *Tokenizer) AccelSlots() int {
	if t.fe == nil {
		return 0
	}
	return t.fe.Slots()
}

// MaxRetainedCarryCap is the bound on the carry backing array retained
// between tokens (resource certificates record it; see resetCarry).
const MaxRetainedCarryCap = maxRetainedCarryCap

// TableBytes returns the memory footprint of the precomputed automata and
// tables: the tokenization DFA, the token-extension DFA (k ≥ 2), or the
// Fig. 5 table (k == 1). Together with the input buffer and the K-byte
// delay ring this is StreamTok's entire stream-independent state (the RQ6
// accounting).
func (t *Tokenizer) TableBytes() int {
	d := t.m.DFA
	n := d.TableBytes()
	if t.te != nil {
		n += t.te.Bytes()
	}
	if t.k1 != nil {
		n += t.k1.Bytes() // fused Fig. 5 action table
	}
	n += t.fe.Bytes()
	return n
}

// NewStreamer starts tokenizing a fresh stream and registers it in the
// tokenizer's observability registry. The stream's counters fold into
// the tokenizer aggregate when it finishes — at Close, when it dies on
// untokenizable input, or at an explicit Discard. A streamer that is
// abandoned without any of those stays registered (its counters still
// appear in AggregateCounters snapshots) but is never freed from the registry,
// so long-lived tokenizers should Close or Discard every stream.
func (t *Tokenizer) NewStreamer() *Streamer {
	s := &Streamer{m: t.m, k: t.k, te: t.te, k1: t.k1, fe: t.fe, tok: t, noObs: t.noObs}
	if !t.noObs {
		s.c.TokensByRule = make([]uint64, len(t.m.Grammar.Rules))
		s.latK = bits.Len64(uint64(t.k))
		if s.latK >= obs.LatencyBuckets {
			s.latK = obs.LatencyBuckets - 1
		}
	}
	if t.te != nil {
		if t.fe != nil && t.fe.Mode == fused.ModeGeneral {
			// The fused loop indexes the ring with a mask, so size it
			// to the next power of two ≥ k.
			c := nextPow2(t.k)
			s.ring = make([]byte, c)
			s.ringMask = c - 1
		} else {
			s.ring = make([]byte, t.k)
		}
	} else if t.lazy != nil {
		s.eval = t.lazy.NewEvaluator()
		s.ring = make([]byte, t.k)
	}
	s.start()
	return s
}

// start (re)initializes the stream-varying state and registers the
// stream in the observability registry. The stream-constant state —
// tables, ring and scratch buffers, the lazy evaluator and its
// powerstate cache, the batch buffer, the per-rule counter slice — is
// left alone, which is what makes pooled reuse allocation-free.
func (s *Streamer) start() {
	t := s.tok
	s.qa = t.m.DFA.Start
	s.s = 0
	switch {
	case s.te != nil:
		s.s = s.te.Start
	case s.eval != nil:
		s.s = s.eval.Start()
	}
	s.head, s.filled = 0, 0
	s.prevOK, s.prev = false, 0
	s.startP, s.pos = 0, 0
	s.stopped, s.rest = false, 0
	s.done = false
	s.tailTokens = 0
	s.hasInherited = false
	s.resetCarry()
	s.batch = s.batch[:0]
	s.batchSink = nil
	if !s.noObs {
		s.c.Reset()
		s.c.Streams = 1
		t.obsMu.Lock()
		t.live[s] = struct{}{}
		t.obsMu.Unlock()
	}
}

// Reset retires the streamer's current stream (folding its counters
// into the tokenizer aggregate, like Discard, unless it already
// finished) and makes it ready to tokenize a fresh stream, reusing
// every buffer it holds. AcquireStreamer calls it on pooled streamers;
// callers managing their own streamers can call it directly.
func (s *Streamer) Reset() {
	if !s.done {
		s.stopped = true
		s.retire()
	}
	s.start()
}

// AcquireStreamer returns a ready Streamer, reusing a pooled one when
// available: its carry buffer, delay ring, scratch, batch buffer, and
// counter block all come from the previous stream, so steady-state
// stream turnover allocates nothing. Pair with ReleaseStreamer.
func (t *Tokenizer) AcquireStreamer() *Streamer {
	if v := t.pool.Get(); v != nil {
		s := v.(*Streamer)
		s.Reset()
		return s
	}
	return t.NewStreamer()
}

// ReleaseStreamer retires s (folding its counters into the tokenizer
// aggregate if it has not already finished via Close or a dead-input
// stop) and recycles it for a future AcquireStreamer. s must not be
// used after release, and must have come from this tokenizer.
func (t *Tokenizer) ReleaseStreamer(s *Streamer) {
	if s == nil || s.tok != t {
		return
	}
	if !s.done {
		s.stopped = true
		s.retire()
	}
	s.batchSink = nil
	t.pool.Put(s)
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// AggregateCounters snapshots the tokenizer-wide observability aggregate:
// finished streams plus the current counters of every live one. It is
// safe to call from any goroutine; counters of streams being actively
// fed at the moment of the snapshot are read without synchronization
// and may be slightly stale or torn — fine for monitoring, so the feed
// loops never pay for atomics.
func (t *Tokenizer) AggregateCounters() obs.Counters {
	t.obsMu.Lock()
	out := t.retired.Clone()
	for s := range t.live {
		sc := s.snapshot()
		s.subtractInherited(&sc)
		out.Merge(&sc)
	}
	t.obsMu.Unlock()
	return out
}

// StreamCounters snapshots this stream's own counters. Like Feed, it is
// owner-called: not safe concurrently with Feed/Close on the same
// streamer.
func (s *Streamer) StreamCounters() obs.Counters {
	return s.snapshot()
}

// LayerCounters returns the stream's live counter block, for a stage
// layered on this streamer's emissions to count into (the BPE encoder's
// piece and cache counters): what it adds shows in this stream's
// snapshots, survives Close, and folds into the tokenizer aggregate
// with the streamer's own counts. Owner-only, like Feed.
func (s *Streamer) LayerCounters() *obs.Counters { return &s.c }

// snapshot derives the stream's full counter block without mutating the
// stream (so concurrent registry snapshots stay read-only): it folds in
// the buffers' current occupancy, totals the per-rule counts into
// TokensOut, and credits every Feed-path emission to the latency-K
// histogram bucket — Feed emits a token exactly when A, running K bytes
// behind the input, catches up to the decision point, so only the Close
// drain (counted in tailTokens) observes smaller latencies and records
// them individually.
func (s *Streamer) snapshot() obs.Counters {
	var c obs.Counters
	s.snapshotInto(&c)
	return c
}

// snapshotInto is snapshot into a caller-owned block, reusing its
// TokensByRule backing (the allocation-free retirement path).
func (s *Streamer) snapshotInto(c *obs.Counters) {
	s.c.CloneInto(c)
	c.NoteCarry(len(s.carry))
	if s.prevOK {
		c.NoteRing(1) // split k==1: the one-byte delay slot
	}
	c.NoteRing(s.filled)
	var total uint64
	for _, n := range c.TokensByRule {
		total += n
	}
	c.TokensOut = total
	c.EmitLatency[s.latK] += total - s.tailTokens
}

// NoteParallel folds one speculative parallel run's stitching stats into
// the tokenizer aggregate (internal/parallel reports here).
func (t *Tokenizer) NoteParallel(segments, synced, rescanned int) {
	if t.noObs {
		return
	}
	t.obsMu.Lock()
	t.retired.ParallelRuns++
	t.retired.ParallelSegments += uint64(segments)
	t.retired.ParallelSynced += uint64(synced)
	t.retired.ParallelReScanned += uint64(rescanned)
	t.obsMu.Unlock()
}

// Discard retires an unfinished streamer from the observability
// registry without emitting anything: its counters are folded into the
// tokenizer aggregate and the stream must not be fed again. Close and
// dead-input stops retire automatically; Discard is for streams that
// are abandoned mid-flight (the parallel stitcher's speculative runs).
func (s *Streamer) Discard() { s.stopped = true; s.retire() }

// retire folds the stream's counters into the tokenizer aggregate and
// drops it from the live registry. Idempotent.
func (s *Streamer) retire() {
	if s.done || s.noObs {
		s.done = true
		return
	}
	s.done = true
	s.c.StreamsDone = 1 // so the stream's own snapshots agree with the fold
	s.snapshotInto(&s.snap)
	s.subtractInherited(&s.snap)
	t := s.tok
	t.obsMu.Lock()
	t.retired.Merge(&s.snap)
	delete(t.live, s)
	t.obsMu.Unlock()
}

// subtractInherited removes a resumed stream's inherited baseline from
// a derived snapshot, leaving only this segment's own contribution —
// the delta aggregate folds use (see the inherited field). Volume
// counters subtract (clamped at zero, since derived blocks can be read
// torn); high-water marks are left alone (max-merge absorbs them), and
// Streams/StreamsDone count each resumed segment as a stream of its
// own. The inherited steady-state emission mass comes off the
// latency-K histogram bucket it was derived into.
func (s *Streamer) subtractInherited(c *obs.Counters) {
	if !s.hasInherited {
		return
	}
	in := &s.inherited
	sub := func(dst *uint64, v uint64) {
		if *dst >= v {
			*dst -= v
		} else {
			*dst = 0
		}
	}
	sub(&c.BytesIn, in.BytesIn)
	sub(&c.Chunks, in.Chunks)
	var inTotal uint64
	for i, n := range in.TokensByRule {
		if i < len(c.TokensByRule) {
			sub(&c.TokensByRule[i], n)
		}
		inTotal += n
	}
	sub(&c.TokensOut, inTotal)
	sub(&c.EmitLatency[s.latK], inTotal)
	sub(&c.AccelAttempts, in.AccelAttempts)
	sub(&c.AccelSkippedBytes, in.AccelSkippedBytes)
	sub(&c.AccelBackoffs, in.AccelBackoffs)
	sub(&c.FusedFallbacks, in.FusedFallbacks)
}

// noteBuffers refreshes the carry/ring high-water marks from the
// buffers' current occupancy (called at the end of each Feed, so peaks
// survive into snapshots taken after the buffers drain).
func (s *Streamer) noteBuffers() {
	s.c.NoteCarry(len(s.carry))
	if s.prevOK {
		s.c.NoteRing(1) // split k==1: the one-byte delay slot
	}
	s.c.NoteRing(s.filled)
}

// Stopped reports whether tokenization has terminated: either Close was
// called, or the remaining input matches no rule (Definition 1's None
// case). Once stopped, Feed ignores further input.
func (s *Streamer) Stopped() bool { return s.stopped }

// Rest returns the offset of the first byte that was not tokenized. It is
// meaningful after Close (or once Stopped reports true).
func (s *Streamer) Rest() int { return s.rest }

// Feed pushes a chunk of the stream through the tokenizer, invoking emit
// for every maximal token confirmed. It never backtracks: each byte is
// examined O(1) times.
func (s *Streamer) Feed(chunk []byte, emit EmitFunc) {
	if s.stopped || len(chunk) == 0 {
		return
	}
	if !s.noObs {
		s.c.BytesIn += uint64(len(chunk))
		s.c.Chunks++
	}
	switch {
	case s.fe != nil && s.fe.Mode == fused.ModeSmall:
		s.feedFusedSmall(chunk, emit)
	case s.fe != nil:
		s.feedFusedGeneral(chunk, emit)
	case s.k <= 0:
		s.feedK0(chunk, emit)
	case s.k == 1:
		s.feedK1(chunk, emit)
	case s.eval != nil:
		s.feedGeneralLazy(chunk, emit)
	default:
		s.feedGeneral(chunk, emit)
	}
	if !s.noObs {
		s.noteBuffers()
	}
}

// FeedBatch is Feed with batched emission: confirmed tokens are
// appended to the streamer's reused batch buffer and handed to sink in
// batches — when the buffer fills and once at the chunk boundary — so
// token-dense workloads pay one indirect call per batch instead of one
// per token, and no text assembly at all. The emitted offsets index the
// stream exactly as Feed's do; FeedBatch and Feed may be freely
// interleaved on one stream and together emit every token exactly once.
func (s *Streamer) FeedBatch(chunk []byte, sink BatchFunc) {
	if sink == nil {
		s.Feed(chunk, nil)
		return
	}
	if cap(s.batch) == 0 {
		s.batch = make([]token.Token, 0, batchCap)
	}
	s.batchSink = sink
	s.Feed(chunk, nil)
	s.flushBatch()
	s.batchSink = nil
}

// CloseBatch is Close with batched emission of the drained tail tokens.
func (s *Streamer) CloseBatch(sink BatchFunc) int {
	if sink == nil {
		return s.Close(nil)
	}
	if cap(s.batch) == 0 {
		s.batch = make([]token.Token, 0, batchCap)
	}
	s.batchSink = sink
	rest := s.Close(nil)
	s.flushBatch()
	s.batchSink = nil
	return rest
}

// flushBatch hands the pending batch to the sink and truncates it.
func (s *Streamer) flushBatch() {
	if len(s.batch) > 0 && s.batchSink != nil {
		s.batchSink(s.batch)
		s.batch = s.batch[:0]
	}
}

// PendingStart returns the stream offset where the pending (not yet
// emitted) token begins — equivalently, the end of the last emitted
// token. It is always a true token boundary of the stream: the
// tokenization DFA restarts there, which is what lets windowed drivers
// (internal/parallel) re-derive the pending suffix deterministically.
func (s *Streamer) PendingStart() int { return s.startP }

// Offset returns the absolute stream offset of the next byte Feed will
// consume — the total bytes fed into the logical stream, counting any
// suspended segments replayed by Restore. It is pos plus the bytes B
// has consumed but A has not (the delay slot and ring), an invariant
// that holds in every engine mode.
func (s *Streamer) Offset() int {
	d := s.filled
	if s.prevOK {
		d++
	}
	return s.pos + d
}

// feedK0: max-TND 0 means no token extends another, so A emits the moment
// it reaches a final state.
func (s *Streamer) feedK0(chunk []byte, emit EmitFunc) {
	d := s.m.DFA
	trans := d.Trans
	classOf := &d.ClassOf
	nc := d.NumClasses()
	base := s.pos // stream offset of chunk[0]
	qa, pos := s.qa, s.pos
	for _, b := range chunk {
		qa = int(trans[qa*nc+int(classOf[b])])
		pos++
		if d.IsFinal(qa) {
			s.qa, s.pos = qa, pos
			s.emitToken(emit, d.Rule(qa), chunk, base)
			qa = s.qa // emitToken restarted A
		} else if s.m.IsDead(qa) {
			s.qa, s.pos = qa, pos
			s.stop()
			return
		}
	}
	s.qa, s.pos = qa, pos
	s.saveCarry(chunk, base)
}

// feedK1 implements Fig. 5: A runs one byte behind the input so each
// table check T[q][a] sees the next byte as lookahead.
func (s *Streamer) feedK1(chunk []byte, emit EmitFunc) {
	d := s.m.DFA
	trans := d.Trans
	classOf := &d.ClassOf
	nc := d.NumClasses()
	k1 := s.k1
	base := s.pos // stream offset chunk[0] will have for A
	if s.prevOK {
		base++ // the delayed byte precedes the chunk
	}
	qa, pos := s.qa, s.pos
	prev, prevOK := s.prev, s.prevOK
	for _, b := range chunk {
		if !prevOK {
			prev, prevOK = b, true
			continue
		}
		a := prev
		prev = b
		if pos < base {
			// a came from a previous chunk: preserve it for the
			// pending token's text.
			s.carry = append(s.carry, a)
		}
		qa = int(trans[qa*nc+int(classOf[a])])
		pos++
		if act := k1.Action(qa, b); act != tepath.ActContinue {
			if act == tepath.ActDead {
				s.qa, s.pos, s.prev, s.prevOK = qa, pos, prev, prevOK
				s.stop()
				return
			}
			s.qa, s.pos = qa, pos
			s.emitToken(emit, int(act-tepath.ActEmitBase), chunk, base)
			qa = s.qa // emitToken restarted A
		}
	}
	s.qa, s.pos, s.prev, s.prevOK = qa, pos, prev, prevOK
	s.saveCarry(chunk, base)
}

// feedGeneral implements Fig. 6: the token-extension DFA B consumes each
// byte immediately; A consumes it K bytes later via the delay ring; the
// maximality table is consulted after each A step.
func (s *Streamer) feedGeneral(chunk []byte, emit EmitFunc) {
	d := s.m.DFA
	trans := d.Trans
	classOf := &d.ClassOf
	nc := d.NumClasses()
	te := s.te
	k := s.k
	ring := s.ring
	base := s.pos + s.filled // stream offset of chunk[0]
	qa, sb, head, pos := s.qa, s.s, s.head, s.pos
	for _, b := range chunk {
		sb = te.Step(sb, b) // line 11: B is K symbols ahead of A
		if s.filled < k {
			ring[(head+s.filled)%k] = b
			s.filled++
			continue
		}
		a := ring[head]
		ring[head] = b
		head++
		if head == k {
			head = 0
		}
		if pos < base {
			s.carry = append(s.carry, a)
		}
		qa = int(trans[qa*nc+int(classOf[a])]) // line 12
		pos++
		if te.MaximalFinal(qa, sb) { // line 14: T[q][S]
			s.qa, s.s, s.head, s.pos = qa, sb, head, pos
			s.emitToken(emit, d.Rule(qa), chunk, base)
			qa = s.qa // emitToken restarted A
		} else if s.m.IsDead(qa) {
			s.qa, s.s, s.head, s.pos = qa, sb, head, pos
			s.stop()
			return
		}
	}
	s.qa, s.s, s.head, s.pos = qa, sb, head, pos
	s.saveCarry(chunk, base)
}

// feedGeneralLazy is feedGeneral over the lazily determinized TeDFA (the
// loop is duplicated so both hot paths stay devirtualized).
func (s *Streamer) feedGeneralLazy(chunk []byte, emit EmitFunc) {
	d := s.m.DFA
	trans := d.Trans
	classOf := &d.ClassOf
	nc := d.NumClasses()
	eval := s.eval
	k := s.k
	ring := s.ring
	base := s.pos + s.filled
	qa, sb, head, pos := s.qa, s.s, s.head, s.pos
	for _, b := range chunk {
		sb = eval.Step(sb, b)
		if s.filled < k {
			ring[(head+s.filled)%k] = b
			s.filled++
			continue
		}
		a := ring[head]
		ring[head] = b
		head++
		if head == k {
			head = 0
		}
		if pos < base {
			s.carry = append(s.carry, a)
		}
		qa = int(trans[qa*nc+int(classOf[a])])
		pos++
		if eval.MaximalFinal(qa, sb) {
			s.qa, s.s, s.head, s.pos = qa, sb, head, pos
			s.emitToken(emit, d.Rule(qa), chunk, base)
			qa = s.qa // emitToken restarted A
		} else if s.m.IsDead(qa) {
			s.qa, s.s, s.head, s.pos = qa, sb, head, pos
			s.stop()
			return
		}
	}
	s.qa, s.s, s.head, s.pos = qa, sb, head, pos
	s.saveCarry(chunk, base)
}

// Close signals end of stream and drains the delayed bytes, emitting any
// final maximal tokens. It returns the offset of the first untokenized
// byte (the stream length when everything tokenized).
func (s *Streamer) Close(emit EmitFunc) int {
	if s.stopped {
		return s.rest
	}
	d := s.m.DFA
	// Stream length, for the drained tokens' emission latency: A's
	// position plus whatever input is still delayed ahead of it.
	streamEnd := s.pos
	if s.k == 1 && s.fe == nil && s.prevOK {
		streamEnd++
	} else if s.k > 1 {
		streamEnd += s.filled
	}
	switch {
	case s.k <= 0:
		// Nothing delayed.
	case s.k == 1:
		if s.fe != nil {
			// The fused small engine runs A undelayed: the whole stream
			// is already consumed and carried, so the only question is
			// whether the pending suffix is itself a final token.
			if s.pos > s.startP && d.IsFinal(s.qa) {
				s.emitTail(emit, d.Rule(s.qa), streamEnd)
			}
		} else if s.prevOK {
			a := s.prev
			s.prevOK = false
			s.carry = append(s.carry, a)
			s.qa = d.Step(s.qa, a)
			s.pos++
			if d.IsFinal(s.qa) {
				s.emitTail(emit, d.Rule(s.qa), streamEnd)
			} else if s.m.IsDead(s.qa) {
				s.stop()
				return s.rest
			}
		}
	default:
		// Drain the ring: for the last positions B has no K-byte
		// lookahead, so maximality is checked directly against the
		// remaining tail (< K bytes). The fused general ring is
		// power-of-two sized, hence the mask-aware advance.
		for s.filled > 0 {
			a := s.ring[s.head]
			if s.ringMask != 0 {
				s.head = (s.head + 1) & s.ringMask
			} else {
				s.head++
				if s.head == s.k {
					s.head = 0
				}
			}
			s.filled--
			s.carry = append(s.carry, a)
			s.qa = d.Step(s.qa, a)
			s.pos++
			if d.IsFinal(s.qa) {
				tail := s.ringContents()
				extends := false
				if s.eval != nil {
					extends = s.eval.ExtendsWithinTail(s.qa, tail)
				} else {
					extends = s.te.ExtendsWithinTail(s.qa, tail)
				}
				if !extends {
					s.emitTail(emit, d.Rule(s.qa), streamEnd)
				}
			} else if s.m.IsDead(s.qa) {
				s.stop()
				return s.rest
			}
		}
	}
	s.stopped = true
	s.rest = s.startP // == s.pos when the final token ended the stream
	s.retire()
	return s.rest
}

// ringContents returns the delayed bytes in stream order, reusing the
// Streamer's scratch buffer (the Close drain calls this once per final
// position; a fresh slice per call showed up as pure garbage).
func (s *Streamer) ringContents() []byte {
	if cap(s.ringScratch) < s.filled {
		s.ringScratch = make([]byte, 0, len(s.ring))
	}
	out := s.ringScratch[:0]
	for i := 0; i < s.filled; i++ {
		if s.ringMask != 0 {
			out = append(out, s.ring[(s.head+i)&s.ringMask])
		} else {
			out = append(out, s.ring[(s.head+i)%s.k])
		}
	}
	s.ringScratch = out
	return out
}

// emitToken emits the pending token ending at s.pos during a Feed whose
// chunk starts at stream offset base. Tokens contained in the chunk are
// emitted as zero-copy subslices; tokens spanning chunks are assembled in
// the carry buffer.
//
// Observability: the per-token hot-path cost is one slice increment.
// Every Feed-path emission has latency exactly K — A runs K bytes behind
// the input in every engine mode, and maximality is decided the moment A
// catches up — so the latency histogram's steady-state mass and the
// TokensOut total are derived at snapshot time (see snapshot) instead of
// being counted here.
func (s *Streamer) emitToken(emit EmitFunc, rule int, chunk []byte, base int) {
	if emit != nil {
		var text []byte
		if s.startP >= base {
			text = chunk[s.startP-base : s.pos-base]
		} else {
			// With a delay ring the token may end before the chunk
			// even starts (s.pos <= base): then carry already has it
			// all.
			if end := s.pos - base; end > 0 {
				s.carry = append(s.carry, chunk[:end]...)
			}
			text = s.carry
			if !s.noObs {
				// The carry peaks right here: a spanning token fully
				// assembled, about to be reset.
				s.c.NoteCarry(len(s.carry))
			}
		}
		emit(token.Token{Start: s.startP, End: s.pos, Rule: rule}, text)
	} else if s.batchSink != nil {
		// Batched emission: append into the reused buffer, no text
		// assembly; flush when the buffer fills so one token-dense Feed
		// still runs in bounded memory.
		s.batch = append(s.batch, token.Token{Start: s.startP, End: s.pos, Rule: rule})
		if len(s.batch) >= batchCap {
			s.flushBatch()
		}
	}
	if !s.noObs {
		s.c.TokensByRule[rule]++
	}
	s.startP = s.pos
	s.resetCarry()
	s.qa = s.m.DFA.Start
}

// emitTail emits a token during Close; its bytes are fully in carry.
// inOff is the stream's end offset: maximality was only decidable at
// EOF, so the token's emission latency is inOff - s.pos < K.
func (s *Streamer) emitTail(emit EmitFunc, rule int, inOff int) {
	if emit != nil {
		emit(token.Token{Start: s.startP, End: s.pos, Rule: rule}, s.carry)
	} else if s.batchSink != nil {
		s.batch = append(s.batch, token.Token{Start: s.startP, End: s.pos, Rule: rule})
		if len(s.batch) >= batchCap {
			s.flushBatch()
		}
	}
	if !s.noObs {
		s.c.TokensByRule[rule]++
		s.c.NoteCarry(len(s.carry))
		s.c.ObserveLatency(uint64(inOff - s.pos))
		s.tailTokens++
	}
	s.startP = s.pos
	s.resetCarry()
	s.qa = s.m.DFA.Start
}

// noteAccel folds the fused loops' per-chunk accel tallies (kept in
// locals while the loop runs) into the counters.
func (s *Streamer) noteAccel(attempts, skipped int) {
	if s.noObs || attempts == 0 {
		return
	}
	s.c.AccelAttempts += uint64(attempts)
	s.c.AccelSkippedBytes += uint64(skipped)
}

// maxRetainedCarryCap bounds the carry backing array kept between
// tokens: one pathologically large spanning token must not pin its
// buffer for the rest of the stream.
const maxRetainedCarryCap = 64 << 10

// resetCarry clears the carry after an emission, dropping the backing
// array when a giant spanning token inflated it.
func (s *Streamer) resetCarry() {
	if cap(s.carry) > maxRetainedCarryCap {
		s.carry = nil
	} else {
		s.carry = s.carry[:0]
	}
}

// saveCarry preserves, at the end of a Feed, the pending token bytes that
// live in the expiring chunk.
func (s *Streamer) saveCarry(chunk []byte, base int) {
	end := s.pos - base // bytes of the chunk A has consumed
	if end <= 0 || s.pos == s.startP {
		return
	}
	from := s.startP - base
	if from < 0 {
		from = 0
	}
	s.carry = append(s.carry, chunk[from:end]...)
}

func (s *Streamer) stop() {
	s.stopped = true
	s.rest = s.startP
	s.retire()
}
