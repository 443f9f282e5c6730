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
	m  *tokdfa.Machine
	k  int
	te *tepath.Table   // split k ≥ 2 only: complete, or the template lazy streams clone
	k1 *tepath.K1Table // split k == 1 only; fused-k1 never reads it
	fe *fused.Engine   // fused fast engine, nil → split loops

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
	m   *tokdfa.Machine
	k   int
	te  *tepath.Table   // split k ≥ 2: shared if complete, else this stream's own clone
	k1  *tepath.K1Table // Fig. 5 mode (split k == 1)
	fe  *fused.Engine   // fused fast engine, nil → split loops
	tok *Tokenizer      // owner, for the observability registry

	c          obs.Counters // always-on counters; plain fields, owner-updated
	noObs      bool         // benchmark-only: skip counter updates
	done       bool         // counters already folded into the tokenizer
	latK       int          // EmitLatency bucket for latency K (every Feed-path emission)
	tailTokens uint64       // tokens the Close drain emitted (latency < K)

	qa     int    // current state of A, or of a packed product (see stateA)
	s      int    // current state of the token-extension DFA B
	ring   []byte // delay ring: bytes B has consumed but A has not (split k==1: the one delayed byte)
	head   int    // ring read index
	filled int    // bytes currently in the ring (≤ k)

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
// The tokenizer first compiles the per-byte decision sequence into the
// internal/fused fast path (one packed table + run-skipping accel
// states) and streams through it when it fits the fused-engine budget;
// for k ≥ 2 that is the packed product, which needs no token-extension
// DFA. The split loops remain the fallback and the ablation baseline (a
// negative NewWithKBudget budget). Only a k ≥ 2 grammar that does not
// pack builds the token-extension DFA for the split Fig. 6 loop,
// expanded eagerly up to limits.MaxDFAStates powerstates
// (eagerTeDFACap when 0). Past the cap (the TeDFA can be exponential in
// k) the tokenizer keeps the table unexpanded and each stream grows its
// own copy on first use of every transition — same O(1) steady-state
// cost, memory proportional to the powerstates the stream actually
// visits, and not capped.
func NewWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	return NewWithKBudget(m, k, limits, 0)
}

// NewWithKBudget is NewWithK with an explicit fused-table byte budget
// (0 selects the 16 MB default, a negative budget keeps the split
// loops). The budget caps every array the fused hot loop touches — the
// packed table, accel index and class map — so raising it lets larger
// grammars stay fused and lowering it forces the split loops earlier.
func NewWithKBudget(m *tokdfa.Machine, k int, limits tepath.Limits, fusedBudget int) (*Tokenizer, error) {
	return newWithFused(m, k, limits, fused.Options{MaxTableBytes: fusedBudget})
}

// NewNoAccelWithK builds the fused engine with accel states disabled
// (isolating action-table fusion from run skipping in ablations).
func NewNoAccelWithK(m *tokdfa.Machine, k int, limits tepath.Limits) (*Tokenizer, error) {
	return newWithFused(m, k, limits, fused.Options{NoAccel: true})
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

// eagerTeDFACap caps the eager TeDFA expansion when limits.MaxDFAStates
// is 0: practical grammars' TeDFAs are far below it, and expanding
// further before going lazy would waste seconds on exponential families.
const eagerTeDFACap = 1 << 12

func newWithFused(m *tokdfa.Machine, k int, limits tepath.Limits, opts fused.Options) (*Tokenizer, error) {
	if m.DFA.Trans == nil {
		// A machine serving from the sparse row-displacement layout is a
		// scanner (BPE vocab DFA): the streaming engines index class-table
		// rows directly and do not run on it.
		return nil, fmt.Errorf("streamtok: machine has no class transition table (sparse scanner machines cannot drive the streaming engines)")
	}
	t := &Tokenizer{m: m, k: k, live: map[*Streamer]struct{}{}}
	t.fe = fused.Build(m, k, opts)
	switch {
	case t.fe != nil:
		// The fused words fold the Fig. 5 table (k == 1) or B (a packed
		// product) into their states; the Close drain needs only A.
	case k == 1:
		t.k1 = tepath.BuildK1(m)
	case k >= 2:
		te, err := tepath.New(m, k, limits)
		if err != nil {
			return nil, err
		}
		eagerCap := limits.MaxDFAStates
		if eagerCap == 0 {
			eagerCap = eagerTeDFACap
		}
		// Expand a copy: if it passes the cap, the unexpanded te stays
		// as the template each lazy stream clones and grows.
		t.te = te
		if eager := te.Clone(); eager.Expand(eagerCap) == nil {
			t.te = eager
		}
	}
	return t, nil
}

// K returns the lookahead bound the tokenizer was built with.
func (t *Tokenizer) K() int { return t.k }

// Machine returns the underlying tokenization DFA machine.
func (t *Tokenizer) Machine() *tokdfa.Machine { return t.m }

// TeDFASize returns the size of the eager token-extension DFA (0 when
// k ≤ 1, when the streams grow the TeDFA lazily, or when a packed fused
// engine serves and no TeDFA was built).
func (t *Tokenizer) TeDFASize() int {
	if t.te == nil || !t.te.Complete() {
		return 0
	}
	return t.te.NumStates()
}

// EngineMode names the execution mode the tokenizer selected:
// "fused-k<K>" for the fused engine (K ≥ 2: the packed product), or
// "split-k0", "split-k1", "split-general", or "split-general-lazy" for
// the interpreted loops.
func (t *Tokenizer) EngineMode() string {
	if t.fe != nil {
		return t.fe.ModeName()
	}
	switch {
	case t.k <= 0:
		return "split-k0"
	case t.k == 1:
		return "split-k1"
	case !t.te.Complete():
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
// this tokenizer's streams allocates: k for the split loops (Fig. 5's
// one delayed byte at k == 1) and the packed engine (which copies each
// chunk's last k bytes into it), and 0 when no ring is needed (k ≤ 1
// fused, or k == 0). This is the per-stream figure resource certificates
// bind; the observed RingMax high-water mark never exceeds it.
func (t *Tokenizer) RingBytes() int {
	if t.k >= 2 || t.fe == nil && t.k == 1 {
		return t.k
	}
	return 0
}

// PackedStates returns the state count of the packed product the fused
// engine runs for K ≥ 2 (0 for any other engine, or when the grammar
// did not pack and the split Fig. 6 loop serves).
func (t *Tokenizer) PackedStates() int { return t.fe.PackedStates() }

// AccelSlots returns how many states the fused engine has at all — the
// denominator of the accel-state coverage fraction. 0 when the fused
// engine is off.
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
// tables: the tokenization DFA, the eager token-extension DFA (k ≥ 2,
// unless a packed fused engine folded it in), the Fig. 5 table (split
// k == 1 only), and the fused engine's tables.
// Together with the input buffer and the K-byte delay ring this is
// StreamTok's entire stream-independent state (the RQ6 accounting). A
// lazily grown TeDFA is per-stream state and is not counted.
func (t *Tokenizer) TableBytes() int {
	d := t.m.DFA
	n := d.TableBytes()
	if t.te != nil && t.te.Complete() {
		n += t.te.Bytes()
	}
	if t.k1 != nil {
		n += t.k1.Bytes()
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
	if n := t.RingBytes(); n > 0 {
		s.ring = make([]byte, n)
	}
	if t.te != nil && !t.te.Complete() {
		s.te = t.te.Clone()
	}
	s.start()
	return s
}

// start (re)initializes the stream-varying state and registers the
// stream in the observability registry. The stream-constant state —
// tables (a lazy stream's grown TeDFA among them), ring and scratch
// buffers, the batch buffer, the per-rule counter slice — is
// left alone, which is what makes pooled reuse allocation-free.
func (s *Streamer) start() {
	t := s.tok
	s.qa = t.m.DFA.Start
	if s.fe != nil {
		s.qa = s.fe.Start
	}
	s.s = 0
	if s.te != nil {
		s.s = s.te.Start
	}
	s.head, s.filled = 0, 0
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
	c.NoteRing(s.filled)
	var total uint64
	for _, n := range c.TokensByRule {
		total += n
	}
	c.TokensOut = total
	c.EmitLatency[s.latK] += total - s.tailTokens
}

// Discard retires an unfinished streamer from the observability
// registry without emitting anything: its counters are folded into the
// tokenizer aggregate and the stream must not be fed again. Close and
// dead-input stops retire automatically; Discard is for streams that
// are abandoned mid-flight, such as the pretokenizer stream under a
// bpe.Stream released before it closed.
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
	case s.fe != nil:
		s.feedFusedSmall(chunk, emit)
	case s.k <= 0:
		s.feedK0(chunk, emit)
	case s.k == 1:
		s.feedK1(chunk, emit)
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
// tokenization DFA restarts there, so a suspended stream's cursor
// resumes from it (the serving daemon reports it as the resume offset).
func (s *Streamer) PendingStart() int { return s.startP }

// Offset returns the absolute stream offset of the next byte Feed will
// consume — the total bytes fed into the logical stream, counting any
// suspended segments replayed by Restore. It is pos plus the bytes B
// has consumed but A has not (the delay ring), an invariant that holds
// in every engine mode.
func (s *Streamer) Offset() int { return s.pos + s.filled }

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
// table check T[q][a] sees the next byte as lookahead. The delayed byte
// lives in ring[0] (filled 0 or 1), kept in locals while the chunk runs.
func (s *Streamer) feedK1(chunk []byte, emit EmitFunc) {
	d := s.m.DFA
	trans := d.Trans
	classOf := &d.ClassOf
	nc := d.NumClasses()
	k1 := s.k1
	base := s.pos + s.filled // stream offset of chunk[0]; the delayed byte precedes it
	qa, pos := s.qa, s.pos
	prev, filled := s.ring[0], s.filled
	for _, b := range chunk {
		if filled == 0 {
			prev, filled = b, 1
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
				s.qa, s.pos, s.ring[0], s.filled = qa, pos, prev, filled
				s.stop()
				return
			}
			s.qa, s.pos = qa, pos
			s.emitToken(emit, int(act-tepath.ActEmitBase), chunk, base)
			qa = s.qa // emitToken restarted A
		}
	}
	s.qa, s.pos, s.ring[0], s.filled = qa, pos, prev, filled
	s.saveCarry(chunk, base)
}

// feedGeneral implements Fig. 6: the token-extension DFA B consumes each
// byte immediately; A consumes it K bytes later via the delay ring; the
// maximality table is consulted after each A step. A lazy stream's B
// table has uncomputed (-1) entries, grown on first use: the loop loads
// the entry itself and branches on its sign, because a Step method
// holding that check would not inline.
func (s *Streamer) feedGeneral(chunk []byte, emit EmitFunc) {
	d := s.m.DFA
	trans := d.Trans
	classOf := &d.ClassOf
	nc := d.NumClasses()
	te := s.te
	teTrans := te.Trans()
	k := s.k
	ring := s.ring
	base := s.pos + s.filled // stream offset of chunk[0]
	qa, sb, head, pos := s.qa, s.s, s.head, s.pos
	for _, b := range chunk {
		// line 11: B is K symbols ahead of A (B shares A's byte classes).
		c := int(classOf[b])
		next := teTrans[sb*nc+c]
		if next < 0 {
			next = te.Grow(sb, c)
			teTrans = te.Trans()
		}
		sb = int(next)
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
	streamEnd := s.pos + s.filled
	switch {
	case s.k <= 0:
		// Nothing delayed.
	case s.k == 1 && s.fe != nil:
		// The fused small engine runs A undelayed: the whole stream is
		// already consumed and carried, so the only question is whether
		// the pending suffix is itself a final token.
		if s.pos > s.startP && d.IsFinal(s.qa) {
			s.emitTail(emit, d.Rule(s.qa), streamEnd)
		}
	default:
		// Drain the ring: for the last positions B has no K-byte
		// lookahead, so maximality is checked directly against the
		// remaining tail (< K bytes; empty after split k==1's one byte).
		s.qa = s.stateA()
		for s.filled > 0 {
			a := s.ring[s.head]
			s.head = (s.head + 1) % len(s.ring)
			s.filled--
			s.carry = append(s.carry, a)
			s.qa = d.Step(s.qa, a)
			s.pos++
			if d.IsFinal(s.qa) {
				if !s.extendsWithinTail(s.qa, s.ringContents()) {
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

// extendsWithinTail reports whether the token ending at A's final state
// q can be extended to a longer token using only the bytes of tail (the
// remainder of a finite stream, len(tail) < K). Used to drain the last
// positions at end of stream, where B has run out of lookahead.
func (s *Streamer) extendsWithinTail(q int, tail []byte) bool {
	d := s.m.DFA
	for _, b := range tail {
		q = d.Step(q, b)
		if d.IsFinal(q) {
			return true
		}
		if s.m.IsDead(q) {
			return false
		}
	}
	return false
}

// stateA returns A's state. A packed product's state does not name it,
// but A restarted at the pending token's first byte and has consumed
// exactly the carry since, so it is replayed from there.
func (s *Streamer) stateA() int {
	if s.fe.PackedStates() == 0 {
		return s.qa
	}
	d := s.m.DFA
	q := d.Start
	for _, b := range s.carry {
		q = d.Step(q, b)
	}
	return q
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
		out = append(out, s.ring[(s.head+i)%len(s.ring)])
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
		// still runs in bounded memory. A spanning token still notes the
		// carry peak Feed's assembly reaches, so the counters (and the
		// cursors that carry them) do not depend on the emission API.
		if s.startP < base && !s.noObs {
			s.c.NoteCarry(len(s.carry) + max(s.pos-base, 0))
		}
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
