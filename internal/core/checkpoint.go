package core

import (
	"errors"
	"fmt"

	"streamtok/internal/obs"
)

// Checkpoint/restore: the O(K) live-state export behind resumable
// streams.
//
// The exported state is deliberately *behavioral*, not structural: a
// checkpoint carries the stream offset of the pending token's first
// byte (a true token boundary — see PendingStart) and the bytes the
// engine has consumed past it but not yet resolved into an emitted
// token (carry ++ the split k==1 delay slot ++ the delay ring, in
// stream order). Restore rebases a fresh streamer at the boundary and
// replays those bytes through the ordinary Feed path.
//
// Replay is exact because at a token boundary the tokenization DFA
// restarts, and tokenization from a true boundary is deterministic
// regardless of what preceded it, so
// the replayed engine reaches a state behaviorally identical to the
// suspended one — same future emissions, same Rest, same drain. No
// token is emitted during the replay itself (none ended inside the
// pending range, or the boundary would have advanced past it).
//
// Because the state is byte-level, a checkpoint is independent of the
// engine representation: it does not name TeDFA state ids (which are
// discovery-order dependent under a lazily grown TeDFA and layout
// dependent under the fused engine), so a stream suspended on one
// engine mode can resume on another build of the same grammar. The
// recorded tokenization-DFA state QA is a cross-check, enforced only
// when the resuming engine mode matches the suspending one.
//
// In the steady state (between tokens) the pending payload is at most
// K bytes of ring plus the current token's carried prefix — the
// paper's O(K) live-state claim made serializable.

// CheckpointState is the engine-independent live state of a suspended
// stream. It is produced by Streamer.CheckpointState and consumed by
// Streamer.Restore; the serialized wire format (versioned, CRC'd,
// grammar-hash-bound) lives in internal/machinefile.
type CheckpointState struct {
	// Boundary is the stream offset of the pending token's first byte —
	// always a true token boundary of the stream.
	Boundary int
	// Pending holds every byte the engine consumed at or past Boundary,
	// in stream order: the carry (the pending token's prefix A has
	// consumed), the split k==1 one-byte delay slot if occupied, then
	// the delay-ring contents (bytes B has consumed but A has not).
	Pending []byte
	// QA is the tokenization DFA A's state at suspension — recomputable
	// from Pending, recorded as an integrity cross-check.
	QA int
	// CheckQA enforces the QA cross-check on restore. It must only be
	// set when the restoring engine runs the same mode as the
	// suspending one: A's delay relative to the input differs between
	// modes (the fused small engine runs A undelayed), so the recorded
	// state is only comparable mode-to-mode.
	CheckQA bool
	// Counters is the stream's raw observability block at suspension
	// (underived: TokensOut/EmitLatency mass are derived at snapshot
	// time from TokensByRule). Restore adopts it so a resumed stream's
	// stats continue from where the suspended stream left off.
	Counters obs.Counters
}

// ErrCheckpoint is the sentinel wrapped by every checkpoint/restore
// refusal: streams that cannot be suspended, and checkpoint state that
// fails restore verification.
var ErrCheckpoint = errors.New("streamtok: invalid checkpoint")

// CheckpointState captures the stream's live state. It may be called
// between any two Feed calls (a chunk boundary); the stream remains
// usable and unchanged. Stopped streams — Close was called, or the
// input died — cannot be checkpointed: there is nothing to resume.
func (s *Streamer) CheckpointState() (CheckpointState, error) {
	if s.stopped {
		return CheckpointState{}, errors.New("streamtok: cannot checkpoint a stopped stream")
	}
	pending := make([]byte, 0, len(s.carry)+1+s.filled)
	pending = append(pending, s.carry...)
	if s.prevOK {
		pending = append(pending, s.prev)
	}
	if s.filled > 0 {
		pending = append(pending, s.ringContents()...)
	}
	return CheckpointState{
		Boundary: s.startP,
		Pending:  pending,
		QA:       s.qa,
		Counters: s.c.Clone(),
	}, nil
}

// Restore rebases a fresh streamer to the checkpointed stream: it sets
// the stream position to the boundary, replays the pending bytes, and
// verifies the replay reconverged (no emission, no dead stop, every
// pending byte accounted for, and — when CheckQA is set — the
// tokenization DFA back in the recorded state). On success the
// streamer continues the suspended stream exactly: subsequent Feed
// offsets, emissions, and Close behave as if the original stream had
// never been suspended.
//
// The streamer must be fresh (just constructed, acquired, or Reset).
// On error the streamer's state is unspecified; Reset or release it.
func (s *Streamer) Restore(cs CheckpointState) error {
	if s.stopped || s.pos != 0 || s.startP != 0 || s.filled != 0 || s.prevOK || len(s.carry) != 0 {
		return errors.New("streamtok: Restore requires a fresh streamer")
	}
	if cs.Boundary < 0 {
		return errCheckpointf("negative boundary")
	}
	if !s.noObs && len(cs.Counters.TokensByRule) != len(s.c.TokensByRule) {
		return errCheckpointf("per-rule counter block does not match the grammar")
	}
	s.startP, s.pos = cs.Boundary, cs.Boundary
	// Replay through the ordinary Feed path with counters suppressed:
	// the restored block below already accounts for these bytes.
	savedObs := s.noObs
	s.noObs = true
	if len(cs.Pending) > 0 {
		s.Feed(cs.Pending, nil)
	}
	s.noObs = savedObs
	delayed := s.filled
	if s.prevOK {
		delayed++
	}
	switch {
	case s.stopped:
		return errCheckpointf("pending bytes die under this grammar")
	case s.startP != cs.Boundary:
		return errCheckpointf("pending bytes complete a token (boundary is not a true token boundary)")
	case s.pos+delayed != cs.Boundary+len(cs.Pending):
		return errCheckpointf("pending bytes not conserved by replay")
	case cs.CheckQA && s.qa != cs.QA:
		return errCheckpointf("tokenization DFA state mismatch after replay")
	}
	if !s.noObs {
		c := cs.Counters
		c.CloneInto(&s.c)
		// Remember the adopted baseline: the stream's own counters are
		// cumulative across suspend/resume, but aggregate folds subtract
		// it so a same-process cycle counts each byte and token once
		// (the suspended segment already folded its share).
		c.CloneInto(&s.inherited)
		s.hasInherited = true
	}
	return nil
}

func errCheckpointf(msg string) error {
	return fmt.Errorf("%w: %s", ErrCheckpoint, msg)
}
