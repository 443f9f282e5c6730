package core_test

import (
	"errors"
	"testing"

	"streamtok/internal/core"
)

// TestRestoreRefusals: Restore rejects non-fresh streamers and
// checkpoint states that fail replay verification, each wrapping
// ErrCheckpoint (except the fresh-streamer precondition, which is a
// caller bug rather than bad state).
func TestRestoreRefusals(t *testing.T) {
	tok := newTok(t, `[0-9]+`, `[ ]+`)

	// A genuine suspended state to mutate.
	s := tok.NewStreamer()
	s.Feed([]byte("123 45"), nil)
	cs, err := s.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *core.Streamer { return tok.NewStreamer() }

	if err := s.Restore(cs); err == nil {
		t.Error("Restore on a used streamer should fail")
	}

	bad := cs
	bad.Boundary = -1
	if err := fresh().Restore(bad); !errors.Is(err, core.ErrCheckpoint) {
		t.Errorf("negative boundary: %v, want ErrCheckpoint", err)
	}

	bad = cs
	bad.Counters.TokensByRule = make([]uint64, 99)
	if err := fresh().Restore(bad); !errors.Is(err, core.ErrCheckpoint) {
		t.Errorf("wrong rule count: %v, want ErrCheckpoint", err)
	}

	// Pending bytes the grammar cannot tokenize: replay dies.
	bad = cs
	bad.Pending = []byte("abc")
	if err := fresh().Restore(bad); !errors.Is(err, core.ErrCheckpoint) {
		t.Errorf("dead pending bytes: %v, want ErrCheckpoint", err)
	}

	// Pending bytes that complete a token: the recorded boundary is not
	// the last token boundary of the replayed stream.
	bad = cs
	bad.Pending = []byte("12 34 ")
	if err := fresh().Restore(bad); !errors.Is(err, core.ErrCheckpoint) {
		t.Errorf("token-completing pending bytes: %v, want ErrCheckpoint", err)
	}

	// QA cross-check, enforced only when CheckQA is set.
	bad = cs
	bad.CheckQA = true
	bad.QA++
	if err := fresh().Restore(bad); !errors.Is(err, core.ErrCheckpoint) {
		t.Errorf("QA mismatch: %v, want ErrCheckpoint", err)
	}
	good := cs
	good.CheckQA = true
	if err := fresh().Restore(good); err != nil {
		t.Errorf("same-mode restore with QA check: %v", err)
	}
}
