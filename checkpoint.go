package streamtok

import (
	"errors"
	"fmt"

	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/machinefile"
)

// Resumable streams: a suspended stream's live engine state is O(K)
// bytes — the delay ring, the pending token's carried prefix, and the
// tokenization DFA state — and Checkpoint serializes exactly that into
// a portable cursor blob. Resume reconstructs the stream on any
// tokenizer compiled from the same source (the cursor is bound to the
// certificate's grammar hash) and continues it exactly: subsequent
// Feed offsets, emitted tokens, and the Close drain are byte-identical
// to the stream that was never suspended.
//
// What a cursor does NOT carry: already-emitted tokens (the consumer
// owns those), the BPE piece cache (a resumed stream restarts cold and
// re-earns its hits), and any engine-representation state — cursors
// taken on one engine mode (fused/split, eager/lazy) resume on any
// other build of the same grammar.

// ErrCursor is wrapped by every Resume refusal: malformed or tampered
// blobs (also wrapping machinefile.ErrFormat), wrong-grammar cursors
// (also wrapping ErrCertMismatch), and cursors whose pending bytes
// fail replay verification.
var ErrCursor = errors.New("streamtok: cursor rejected")

// Checkpoint suspends the stream into a resumable cursor blob. It may
// be called between any two Feed calls; the stream itself remains
// usable and unchanged. The blob is versioned, CRC'd, and bound to the
// tokenizer's certificate grammar hash; its payload is the pending
// bytes past the last token boundary (at most the delay ring plus the
// current token's carried prefix) and the stream's observability
// counters. Stopped or closed streams cannot be checkpointed.
func (s *Streamer) Checkpoint() ([]byte, error) {
	if s.s == nil {
		return nil, errors.New("streamtok: checkpoint of a released streamer")
	}
	cs, err := s.s.CheckpointState()
	if err != nil {
		return nil, err
	}
	return machinefile.EncodeCursor(&machinefile.Cursor{
		GrammarHash: s.tok.cert.GrammarHash,
		EngineMode:  s.tok.eng.EngineMode(),
		Boundary:    int64(cs.Boundary),
		QA:          int64(cs.QA),
		Pending:     cs.Pending,
		Counters:    cs.Counters,
	})
}

// Resume reconstructs a suspended stream from a Checkpoint blob on t,
// which must be compiled from the same source the cursor was taken
// under: the cursor's grammar hash is verified against t's certificate
// and a mismatch is refused (ErrCursor wrapping ErrCertMismatch), as
// is any truncated, tampered, or otherwise malformed blob (ErrCursor
// wrapping machinefile.ErrFormat). The returned streamer continues the
// original stream exactly and is released like any acquired one
// (ReleaseStreamer).
func Resume(t *Tokenizer, cursor []byte) (*Streamer, error) {
	cur, err := machinefile.DecodeCursor(cursor)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCursor, err)
	}
	if cur.GrammarHash != t.cert.GrammarHash {
		return nil, fmt.Errorf("%w: %w: cursor was taken under grammar %.12s…, tokenizer is %.12s…",
			ErrCursor, cert.ErrMismatch, cur.GrammarHash, t.cert.GrammarHash)
	}
	cs := core.CheckpointState{
		Boundary: int(cur.Boundary),
		Pending:  cur.Pending,
		QA:       int(cur.QA),
		// The recorded DFA state is only comparable when the resuming
		// engine runs the same mode (the fused small engine runs A
		// undelayed, so its live state leads the split engines' by the
		// lookahead); across modes the replay verification alone
		// decides.
		CheckQA:  cur.EngineMode == t.eng.EngineMode(),
		Counters: cur.Counters,
	}
	s := t.AcquireStreamer()
	if err := s.s.Restore(cs); err != nil {
		t.ReleaseStreamer(s)
		return nil, fmt.Errorf("%w: %w", ErrCursor, err)
	}
	return s, nil
}
