package core

import (
	"context"
	"io"
	"sync"

	"streamtok/internal/obs"
	"streamtok/internal/token"
)

// Stream is the push-mode contract of one stream, whatever engine runs
// it: the core Streamer for a grammar, and the BPE encoder
// (internal/bpe) layered on a pretokenizer Streamer for a vocabulary.
// The reader driver below and the public Streamer hold only this
// interface, so a call through it costs one dynamic dispatch per chunk,
// never one per byte or per token. The methods mean what the Streamer
// methods of the same names document.
type Stream interface {
	Feed(chunk []byte, emit EmitFunc)
	FeedBatch(chunk []byte, sink BatchFunc)
	Close(emit EmitFunc) int
	CloseBatch(sink BatchFunc) int
	Reset()
	Stopped() bool
	Rest() int
	Offset() int
	PendingStart() int
	CheckpointState() (CheckpointState, error)
	Restore(cs CheckpointState) error
	StreamCounters() obs.Counters
}

// Engine is the contract of a compiled tokenizer: pooled streams, the
// lookahead bound, the engine description, and the aggregate of every
// stream's counters. *Tokenizer and the BPE tokenizer implement it.
type Engine interface {
	// AcquireStream returns a ready stream, pooled when possible; pair
	// it with ReleaseStream.
	AcquireStream() Stream
	// ReleaseStream retires s (folding its counters into the aggregate
	// if it did not finish) and recycles it. s must have come from this
	// engine and must not be used afterwards.
	ReleaseStream(s Stream)
	K() int
	EngineMode() string
	TableBytes() int
	AccelStates() int
	AggregateCounters() obs.Counters
}

var (
	_ Engine = (*Tokenizer)(nil)
	_ Stream = (*Streamer)(nil)
)

// AcquireStream is AcquireStreamer behind the Engine contract.
func (t *Tokenizer) AcquireStream() Stream { return t.AcquireStreamer() }

// ReleaseStream is ReleaseStreamer behind the Engine contract; streams
// of another engine are ignored.
func (t *Tokenizer) ReleaseStream(s Stream) {
	if st, ok := s.(*Streamer); ok {
		t.ReleaseStreamer(st)
	}
}

// DefaultBufferSize is the input buffer capacity used when none is given.
// RQ4 finds 64 KB — the Unix pipe capacity — to be the sweet spot.
const DefaultBufferSize = 64 * 1024

// BoundaryFunc is called by TokenizeChunks after every fed block with
// the total bytes consumed from the reader so far. Returning a non-nil
// error stops tokenization at that chunk boundary — the hook the
// serving layer uses to enforce max-bytes admission limits and to flush
// response buffers in step with the input, without touching the feed
// loop itself.
type BoundaryFunc func(consumed int) error

// Tokenize runs TokenizeChunks on t without cancellation or a boundary
// hook.
func (t *Tokenizer) Tokenize(r io.Reader, bufSize int, emit EmitFunc) (rest int, err error) {
	return TokenizeChunks(context.Background(), t, r, bufSize, emit, nil)
}

// bufPool recycles the reader driver's read buffers across every
// engine, so a warm serving loop allocates nothing per stream.
var bufPool sync.Pool

// TokenizeChunks is the reader driver: it reads r block-by-block with a
// buffer of bufSize bytes (0 means DefaultBufferSize), pushes every
// block through a stream acquired from e, and calls emit for every
// token. It returns the offset of the first untokenized byte and any
// read error (io.EOF is not an error).
//
// ctx is checked between read blocks, and after every fed block
// boundary (when non-nil) receives the total bytes consumed so far and
// may stop the stream by returning an error. Either stop cuts at a
// chunk boundary, never inside the feed loop, and returns its error
// with the offset reached. Both the stream and the read buffer are
// pooled.
func TokenizeChunks(ctx context.Context, e Engine, r io.Reader, bufSize int, emit EmitFunc, boundary BoundaryFunc) (rest int, err error) {
	if bufSize <= 0 {
		bufSize = DefaultBufferSize
	}
	s := e.AcquireStream()
	defer e.ReleaseStream(s)
	bp := acquireBuf(bufSize)
	defer bufPool.Put(bp)
	buf := *bp
	consumed := 0
	for {
		if cerr := ctx.Err(); cerr != nil {
			s.Close(nil)
			return s.Rest(), cerr
		}
		n, rerr := r.Read(buf)
		if n > 0 {
			consumed += n
			s.Feed(buf[:n], emit)
			if boundary != nil {
				if berr := boundary(consumed); berr != nil {
					s.Close(nil)
					return s.Rest(), berr
				}
			}
		}
		if rerr == io.EOF {
			return s.Close(emit), nil
		}
		if rerr != nil {
			s.Close(nil)
			return s.Rest(), rerr
		}
		if s.Stopped() {
			// Untokenizable remainder: drain the rest of the stream
			// without work so the caller sees a consistent offset.
			return s.Rest(), nil
		}
	}
}

// acquireBuf returns a pooled read buffer of exactly n bytes, growing a
// fresh one only when the pooled buffer is too small for this call.
func acquireBuf(n int) *[]byte {
	if v := bufPool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	b := make([]byte, n)
	return &b
}

// TokenizeBytes runs TokenizeBytes on t.
func (t *Tokenizer) TokenizeBytes(input []byte) (toks []token.Token, rest int) {
	return TokenizeBytes(t, input)
}

// TokenizeBytes tokenizes an in-memory input in one Feed, returning the
// collected tokens and the offset of the first untokenized byte. It
// mirrors reference.Tokens for differential testing and for offline
// callers. The stream comes from e's pool and tokens are gathered
// through the batched sink, so the only allocation is the caller's
// result slice.
func TokenizeBytes(e Engine, input []byte) (toks []token.Token, rest int) {
	s := e.AcquireStream()
	collect := func(batch []token.Token) { toks = append(toks, batch...) }
	s.FeedBatch(input, collect)
	rest = s.CloseBatch(collect)
	e.ReleaseStream(s)
	return toks, rest
}

// Count tokenizes the stream and returns only the number of tokens and
// total token bytes; used by benchmarks to avoid measuring consumer cost.
func (t *Tokenizer) Count(r io.Reader, bufSize int) (tokens int, bytes int, rest int, err error) {
	rest, err = t.Tokenize(r, bufSize, func(tok token.Token, _ []byte) {
		tokens++
		bytes += tok.Len()
	})
	return tokens, bytes, rest, err
}
