package bpe

import (
	"fmt"
	"sync"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/obs"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// The streaming exact BPE encoder. The pipeline is the BPE-DFA
// construction run through the StreamTok machinery:
//
//	input bytes ──pretok StreamTok engine──▶ pieces ──per piece──▶ ranks
//
// The pretokenizer grammar (PretokGrammar) runs as an ordinary
// bounded-memory StreamTok engine — it is tiny (15 states) and fuses.
// Each emitted piece is encoded by the backtracking search of
// backtrack.go: a greedy scan on the vocab DFA (maximal munch, longest
// token first) whose local-validity check (every adjacent pair
// Compatible) steers the search — a rejected pair makes it try shorter
// tokens and back up, rather than discarding the scan. By the BPE-DFA
// theorem the certified segmentation it ends with IS the BPE encoding.
// Only a search that overruns its linear step budget, or finds
// nothing, falls back to the exact O(n log n) merge loop. Either way
// the emitted ranks are exactly the reference encoding: the fast path
// is verified, not trusted.
//
// Tokens are emitted with Token.Rule = rank and offsets into the
// stream; emission latency is the pretokenizer's (a piece is encoded
// the moment its maximality is confirmed, at most K_pretok bytes after
// it ends).

// Options configures Compile.
type Options struct {
	// MaxTeDFAStates caps the eager expansion of the pretokenizer's
	// token-extension DFA (0 = 4096 states); past it the pretokenizer's
	// streams grow the TeDFA lazily, each with its own uncapped cache
	// (see core.NewWithK).
	MaxTeDFAStates int
	// MaxFusedTableBytes is the resident-table budget (0 = the 16 MB
	// default), shared by the vocab DFA table and the pretokenizer's
	// fused tables: the pretokenizer gets whatever the vocab table
	// leaves, and a vocabulary whose table alone exceeds the budget
	// serves with the pretokenizer on the split loops. A negative budget
	// keeps the pretokenizer on the split loops (ablation). The vocab table
	// is charged at its serving representation, the sparse
	// row-displacement layout, which is what lets 32k+ merge
	// vocabularies fit the default budget with room for fused
	// pretokenizer tables.
	MaxFusedTableBytes int
	// DisablePieceCache turns off the piece-encoding memo cache, paying
	// the backtracking search per piece occurrence (ablation and
	// differential tests of the uncached path).
	DisablePieceCache bool
}

// DefaultFusedBudget mirrors the fused engine's default table budget.
const DefaultFusedBudget = 16 << 20

// Tokenizer is a compiled streaming BPE tokenizer for one vocabulary.
// Immutable and safe for concurrent use; each stream needs its own
// Stream.
type Tokenizer struct {
	vocab *Vocab
	vm    *tokdfa.Machine // vocab maximal-munch DFA
	pm    *tokdfa.Machine // pretokenizer machine
	pres  analysis.Result // pretokenizer analysis
	ptok  *core.Tokenizer // pretokenizer engine

	stepsPerByte int  // search budget per piece byte (searchStepsPerByte; tests starve it)
	noCache      bool // Options.DisablePieceCache

	pool sync.Pool // recycles *Stream
}

var (
	_ core.Engine = (*Tokenizer)(nil)
	_ core.Stream = (*Stream)(nil)
)

// Compile builds the streaming BPE tokenizer: the vocab trie DFA,
// built directly from the token list, the pretokenizer StreamTok
// engine, and the budget split between them.
func Compile(v *Vocab, opts Options) (*Tokenizer, error) {
	// Byte-complete vocabularies defeat byte-class compression (C = 256
	// structurally), so the vocab DFA comes in the row-displacement
	// sparse layout; the budget then charges the sparse arrays, leaving
	// headroom for the pretokenizer's fused tables.
	vm, err := tokdfa.CompileLiterals(v.tokens, tokdfa.Options{})
	if err != nil {
		return nil, fmt.Errorf("bpe: compiling vocab DFA: %w", err)
	}
	pm, err := tokdfa.Compile(PretokGrammar(), tokdfa.Options{Minimize: true})
	if err != nil {
		return nil, fmt.Errorf("bpe: compiling pretokenizer: %w", err)
	}
	pres := analysis.Analyze(pm)
	if !pres.Bounded() {
		return nil, fmt.Errorf("bpe: pretokenizer grammar unbounded (build bug)")
	}
	budget := opts.MaxFusedTableBytes
	if budget == 0 {
		budget = DefaultFusedBudget
	}
	remaining := budget - vm.TableBytes()
	if remaining <= 0 {
		remaining = -1 // a zero budget would select the default
	}
	limits := tepath.Limits{MaxDFAStates: opts.MaxTeDFAStates}
	ptok, err := core.NewWithKBudget(pm, pres.MaxTND, limits, remaining)
	if err != nil {
		return nil, err
	}
	return &Tokenizer{vocab: v, vm: vm, pm: pm, pres: pres, ptok: ptok,
		stepsPerByte: searchStepsPerByte, noCache: opts.DisablePieceCache}, nil
}

// Vocab returns the vocabulary the tokenizer encodes with.
func (t *Tokenizer) Vocab() *Vocab { return t.vocab }

// VocabMachine returns the compiled vocab maximal-munch DFA.
func (t *Tokenizer) VocabMachine() *tokdfa.Machine { return t.vm }

// PretokMachine returns the compiled pretokenizer machine.
func (t *Tokenizer) PretokMachine() *tokdfa.Machine { return t.pm }

// PretokAnalysis returns the pretokenizer's static-analysis result.
func (t *Tokenizer) PretokAnalysis() analysis.Result { return t.pres }

// PretokEngine returns the pretokenizer's StreamTok engine (the
// component whose mode, ring, and accel bounds the certificate pins).
func (t *Tokenizer) PretokEngine() *core.Tokenizer { return t.ptok }

// EngineMode names the engine: "bpe+" plus the pretokenizer's mode.
func (t *Tokenizer) EngineMode() string { return "bpe+" + t.ptok.EngineMode() }

// K returns the pretokenizer's emission-delay bound: a BPE token is
// emitted at most K bytes plus one piece after its last byte.
func (t *Tokenizer) K() int { return t.ptok.K() }

// TableBytes is the resident footprint: the vocab DFA's sparse table
// plus the pretokenizer engine's tables.
func (t *Tokenizer) TableBytes() int { return t.vm.TableBytes() + t.ptok.TableBytes() }

// AccelStates is the pretokenizer engine's count of accelerated states.
func (t *Tokenizer) AccelStates() int { return t.ptok.AccelStates() }

// AggregateCounters snapshots the counters of every stream the
// tokenizer started. Streams count into their pretokenizer stream's
// block, so this is the pretokenizer engine's aggregate: bytes, chunks,
// pieces as its tokens, and the BPE piece, search and cache counters.
func (t *Tokenizer) AggregateCounters() obs.Counters { return t.ptok.AggregateCounters() }

// Counters reports how many pieces have been encoded and how many of
// them ran the merge-loop safety net (the backtracking search spent its
// budget or found nothing). On trained vocabularies the fallback
// fraction is ~0; a rising one flags a hostile rank table.
func (t *Tokenizer) Counters() (pieces, fallbacks uint64) {
	c := t.AggregateCounters()
	return c.BPEPieces, c.BPEFallbacks
}

// CacheCounters reports the piece-encoding cache's aggregate activity:
// hits (single-byte pieces, served from the byte table, count as hits
// of the degenerate always-warm cache), misses (uncacheable oversize
// pieces included), and evicted entries: each one an insert replaced
// in its set or a sweep of the full spill arenas dropped. Every
// piece is exactly one hit or one miss, so hits+misses always equals
// the pieces counter — the reconciliation stats tests pin.
func (t *Tokenizer) CacheCounters() (hits, misses, evictions uint64) {
	c := t.AggregateCounters()
	return c.BPECacheHits, c.BPECacheMisses, c.BPECacheEvictions
}

// Stream is a push-mode BPE encoder for one stream. Not safe for
// concurrent use.
type Stream struct {
	t  *Tokenizer
	ps *core.Streamer // pretokenizer stream, owned for the Stream's life
	c  *obs.Counters  // ps's live counter block, which the encoder counts into

	emit    core.EmitFunc // user sink for the current Feed/Close call
	pieceFn core.EmitFunc // cached closure over onPiece
	batchFn core.EmitFunc // cached closure over batchEmit

	cache *pieceCache // per-stream piece-encoding memo (kept across pooling)

	search searchScratch // backtracking search: token stack, dead boundaries
	enc    []int         // merge-loop safety net scratch
	sc     encodeScratch

	batch     []token.Token // batched emission buffer
	batchSink core.BatchFunc
}

// NewStream starts a fresh stream.
func (t *Tokenizer) NewStream() *Stream {
	s := &Stream{t: t, ps: t.ptok.NewStreamer(), cache: newPieceCache()}
	s.c = s.ps.LayerCounters()
	s.pieceFn = s.onPiece
	s.batchFn = s.batchEmit
	return s
}

// AcquireStream returns a pooled stream (pair with ReleaseStream; the
// warm serving loop allocates nothing per stream). Pooled streams keep
// their piece cache, so reacquired streams start warm.
func (t *Tokenizer) AcquireStream() core.Stream {
	if v := t.pool.Get(); v != nil {
		s := v.(*Stream)
		s.ps.Reset()
		return s
	}
	return t.NewStream()
}

// ReleaseStream retires s (folding its counters into the aggregate if
// it did not finish) and recycles it. s must not be used afterwards.
func (t *Tokenizer) ReleaseStream(cs core.Stream) {
	s, ok := cs.(*Stream)
	if !ok || s == nil || s.t != t {
		return
	}
	s.ps.Discard()
	t.pool.Put(s)
}

func discardEmit(token.Token, []byte) {}

// Feed pushes a chunk through the encoder, emitting the BPE tokens of
// every piece the chunk confirms. Token.Rule is the rank; text is the
// token's bytes, valid only until the next call. A nil emit discards.
func (s *Stream) Feed(chunk []byte, emit core.EmitFunc) {
	if emit == nil {
		emit = discardEmit
	}
	s.emit = emit
	s.ps.Feed(chunk, s.pieceFn)
	s.emit = nil
}

// Close drains the pretokenizer, encodes the final pieces, and returns
// the offset of the first unconsumed byte (the stream length: the
// pretokenizer is total, every byte belongs to some piece). A nil emit
// discards.
func (s *Stream) Close(emit core.EmitFunc) int {
	if emit == nil {
		emit = discardEmit
	}
	s.emit = emit
	rest := s.ps.Close(s.pieceFn)
	s.emit = nil
	return rest
}

// FeedBatch is Feed with batched emission: ranks are buffered as
// offset-only tokens and flushed to sink at buffer pressure and at the
// chunk boundary.
func (s *Stream) FeedBatch(chunk []byte, sink core.BatchFunc) {
	s.batchSink = sink
	s.emit = s.batchFn
	s.ps.Feed(chunk, s.pieceFn)
	s.flushBatch()
	s.emit = nil
	s.batchSink = nil
}

// CloseBatch is Close with batched emission of the final pieces.
func (s *Stream) CloseBatch(sink core.BatchFunc) int {
	s.batchSink = sink
	s.emit = s.batchFn
	rest := s.ps.Close(s.pieceFn)
	s.flushBatch()
	s.emit = nil
	s.batchSink = nil
	return rest
}

func (s *Stream) batchEmit(tok token.Token, _ []byte) {
	s.batch = append(s.batch, tok)
	if len(s.batch) >= 512 {
		s.flushBatch()
	}
}

func (s *Stream) flushBatch() {
	if len(s.batch) > 0 {
		s.batchSink(s.batch)
		s.batch = s.batch[:0]
	}
}

// Reset abandons the current stream and readies s for a fresh one.
func (s *Stream) Reset() { s.ps.Reset() }

// Stopped reports whether the stream has terminated (Close was called;
// the pretokenizer is total, so input never dies).
func (s *Stream) Stopped() bool { return s.ps.Stopped() }

// Rest returns the offset of the first unconsumed byte after Close.
func (s *Stream) Rest() int { return s.ps.Rest() }

// Offset returns the stream offset of the next byte Feed will consume.
func (s *Stream) Offset() int { return s.ps.Offset() }

// PendingStart returns the start of the pending pretokenizer piece: a
// piece boundary, so a BPE token boundary too.
func (s *Stream) PendingStart() int { return s.ps.PendingStart() }

// CheckpointState captures the stream's live state, which is the
// pretokenizer's: the encoder keeps nothing across pieces but its
// cache, and a cache is never part of a cursor.
func (s *Stream) CheckpointState() (core.CheckpointState, error) { return s.ps.CheckpointState() }

// Restore rebases a fresh stream onto a checkpoint by restoring its
// pretokenizer stream (see core.Streamer.Restore).
func (s *Stream) Restore(cs core.CheckpointState) error { return s.ps.Restore(cs) }

// StreamCounters snapshots this stream's counters: the pretokenizer's
// block, which the encoder's piece, search and cache counters ride in.
func (s *Stream) StreamCounters() obs.Counters { return s.ps.StreamCounters() }

// onPiece receives one pretokenizer piece and emits its BPE encoding.
// The cache front-ends everything: a hit replays the certified ranks
// without touching the DFA, the validity walk, or the merge loop.
func (s *Stream) onPiece(ptok token.Token, text []byte) {
	s.c.BPEPieces++
	v := s.t.vocab
	if len(text) == 1 {
		// A single byte is always its byte token: the byte table is the
		// degenerate always-warm cache, so this counts as a hit (keeping
		// hits+misses == pieces exact).
		s.c.BPECacheHits++
		r := int(v.byteRank[text[0]])
		s.emit(token.Token{Start: ptok.Start, End: ptok.End, Rule: r}, text)
		return
	}
	cacheable := len(text) <= maxCachedPieceLen && !s.t.noCache
	var h uint32
	if cacheable {
		h = pieceHash(text)
		if head, tail := s.cache.lookup(text, h); head != nil {
			s.c.BPECacheHits++
			s.emitRanks(ptok, text, s.emitRanks(ptok, text, 0, head), tail)
			return
		}
	}
	s.c.BPECacheMisses++
	ranks := s.encodeUncached(text)
	if cacheable {
		s.c.BPECacheEvictions += s.cache.insert(text, h, ranks)
	}
	s.emitRanks(ptok, text, 0, ranks)
}

// emitRanks emits one token per rank, the first starting start bytes
// into the piece, and returns where the next one would start; offsets
// are recovered from the token lengths (a certified encoding tiles the
// piece exactly).
func (s *Stream) emitRanks(ptok token.Token, text []byte, start int, ranks []int32) int {
	lens := s.t.vocab.tokLen
	for _, r := range ranks {
		end := start + int(lens[r])
		s.emit(token.Token{
			Start: ptok.Start + start,
			End:   ptok.Start + end,
			Rule:  int(r),
		}, text[start:end])
		start = end
	}
	return start
}

// encodeUncached computes the certified BPE encoding of a multi-byte
// piece with the backtracking search, or with the exact merge loop when
// the search gives up. The returned slice is search scratch — valid
// until the next piece.
func (s *Stream) encodeUncached(text []byte) []int32 {
	seg, how, _ := s.t.search(text, &s.search)
	switch how {
	case searchGreedy:
		return seg
	case searchBacktracked:
		s.c.BPEBacktracks++
		return seg
	}
	s.c.BPEFallbacks++
	s.enc = s.t.vocab.encodePiece(s.enc[:0], text, &s.sc)
	seg = seg[:0]
	for _, r := range s.enc {
		seg = append(seg, int32(r))
	}
	s.search.seg = seg
	return seg
}
