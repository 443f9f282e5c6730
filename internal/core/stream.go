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

// Tokenize runs TokenizeChunks on t without cancellation.
func (t *Tokenizer) Tokenize(r io.Reader, bufSize int, emit EmitFunc) (rest int, err error) {
	return TokenizeChunks(context.Background(), t, r, bufSize, emit)
}

// bufPool recycles the reader driver's read buffers across every
// engine and the serving layer, so a warm loop allocates nothing per
// stream.
var bufPool sync.Pool

// Drive is the one read loop behind every reader: the library's
// TokenizeChunks and the daemon's request bodies. It reads r into a
// pooled buffer of bufSize bytes (0 means DefaultBufferSize) and hands
// each block to step, which feeds it to the stream s. The order per
// block is fixed: ctx check, read, step, s.Stopped(), then the read's
// EOF or error — so the stream's own verdict wins over a read error
// that arrives with its last block.
//
// Drive returns nil at EOF or once s has stopped, and otherwise the
// first error from ctx, step or the read; every stop falls on a chunk
// boundary, never inside the feed loop. Closing or suspending s is left
// to the caller.
func Drive(ctx context.Context, s interface{ Stopped() bool }, r io.Reader, bufSize int, step func(chunk []byte) error) error {
	if bufSize <= 0 {
		bufSize = DefaultBufferSize
	}
	bp := acquireBuf(bufSize)
	defer bufPool.Put(bp)
	buf := *bp
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, rerr := r.Read(buf)
		if n > 0 {
			if err := step(buf[:n]); err != nil {
				return err
			}
			if s.Stopped() {
				return nil
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// TokenizeChunks is the reader driver: it runs Drive over r with a
// stream acquired from e, calls emit for every token, and closes the
// stream. It returns the offset of the first untokenized byte and the
// error that cut the stream, if any (io.EOF is not an error); a cut
// stream returns the offset reached. Both the stream and the read
// buffer are pooled.
func TokenizeChunks(ctx context.Context, e Engine, r io.Reader, bufSize int, emit EmitFunc) (rest int, err error) {
	s := e.AcquireStream()
	defer e.ReleaseStream(s)
	if err := Drive(ctx, s, r, bufSize, func(chunk []byte) error {
		s.Feed(chunk, emit)
		return nil
	}); err != nil {
		s.Close(nil)
		return s.Rest(), err
	}
	return s.Close(emit), nil
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
