package cert

import (
	"bytes"
	"errors"
	"fmt"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/tokdfa"
)

// ErrMismatch is wrapped by every verification failure: the certificate
// does not describe the machine or engine it ships with. Loaders refuse
// the artifact on it.
var ErrMismatch = errors.New("cert: certificate does not verify")

// VerifyStatic checks everything about the certificate that is
// recomputable or replayable from the machine alone, without building
// an engine:
//
//   - the grammar hash binds to m's grammar;
//   - DelayK equals the stored max-TND and respects the Lemma 11
//     dichotomy bound, recomputed from the (minimized) DFA;
//   - the witness pair replays on the DFA: both strings are tokens,
//     WitnessU a strict prefix of WitnessV with no token strictly
//     between, and the length gap is exactly DelayK (required when
//     DelayK > 0 — the lower-bound evidence is part of the claim);
//   - the constants (carry cap, the retained ParallelReworkX field)
//     are the ones this build enforces.
//
// Engine-dependent fields (mode, ring/table bytes, accel coverage) are
// checked by VerifyAgainst once the tokenizer is built.
func (c *Certificate) VerifyStatic(m *tokdfa.Machine, maxTND int) error {
	if maxTND == analysis.Infinite {
		return fmt.Errorf("%w: certificate attached to an unbounded machine", ErrMismatch)
	}
	if got := m.Grammar.Hash(); c.GrammarHash != got {
		return fmt.Errorf("%w: grammar hash %.12s != machine's %.12s", ErrMismatch, c.GrammarHash, got)
	}
	if c.DelayK != maxTND {
		return fmt.Errorf("%w: delay K %d != stored max-TND %d", ErrMismatch, c.DelayK, maxTND)
	}
	if want := analysis.DichotomyBound(m.DFA.NumStates()); c.DichotomyBound != want {
		return fmt.Errorf("%w: dichotomy bound %d != DFA-size+1 = %d", ErrMismatch, c.DichotomyBound, want)
	}
	if c.DelayK < 0 || c.DelayK > c.DichotomyBound {
		return fmt.Errorf("%w: delay K %d outside [0, dichotomy %d]", ErrMismatch, c.DelayK, c.DichotomyBound)
	}
	if c.CarryRetainedCap != core.MaxRetainedCarryCap {
		return fmt.Errorf("%w: carry cap %d != engine constant %d", ErrMismatch, c.CarryRetainedCap, core.MaxRetainedCarryCap)
	}
	if c.ParallelReworkX != ParallelReworkBound {
		return fmt.Errorf("%w: parallel rework %dx != fixed value %dx", ErrMismatch, c.ParallelReworkX, ParallelReworkBound)
	}
	// The compression fields are recomputable from the machine alone.
	// Certificates decoded from dense-era (format < 3) files predate them
	// and carry zeros; those files are re-certified by their loaders, so
	// zeros pass here.
	if c.NumClasses != 0 {
		if got := m.DFA.NumClasses(); c.NumClasses != got {
			return fmt.Errorf("%w: %d byte classes != machine's %d", ErrMismatch, c.NumClasses, got)
		}
		if want := DenseDFABytes(m); c.DenseTableBytes != want {
			return fmt.Errorf("%w: dense table bytes %d != recomputed %d", ErrMismatch, c.DenseTableBytes, want)
		}
	} else if c.DenseTableBytes != 0 {
		return fmt.Errorf("%w: dense table bytes %d with no class count", ErrMismatch, c.DenseTableBytes)
	}
	if m.Sparse != nil {
		if got := m.Sparse.TableBytes(); c.SparseTableBytes != got {
			return fmt.Errorf("%w: sparse table bytes %d != machine's %d", ErrMismatch, c.SparseTableBytes, got)
		}
	} else if c.SparseTableBytes != 0 {
		return fmt.Errorf("%w: sparse table bytes %d on a class-table machine", ErrMismatch, c.SparseTableBytes)
	}
	if c.DelayK == 0 {
		if len(c.WitnessU) != 0 || len(c.WitnessV) != 0 {
			return fmt.Errorf("%w: witness pair on a K=0 certificate", ErrMismatch)
		}
		return nil
	}
	return replayWitness(m, c.WitnessU, c.WitnessV, c.DelayK)
}

// replayWitness runs the DFA over the claimed token neighbor pair and
// checks it realizes distance k: u is a token, v extends it by exactly
// k bytes through non-final states to another final state. That is the
// machine-checkable lower bound TkDist ≥ k; together with the stored
// analysis verdict k (whose upper bound the dichotomy check brackets),
// it pins the certificate's delay claim.
func replayWitness(m *tokdfa.Machine, u, v []byte, k int) error {
	if len(u) == 0 {
		return fmt.Errorf("%w: empty witness u", ErrMismatch)
	}
	if len(v)-len(u) != k {
		return fmt.Errorf("%w: witness gap %d != delay K %d", ErrMismatch, len(v)-len(u), k)
	}
	if !bytes.HasPrefix(v, u) {
		return fmt.Errorf("%w: witness u is not a prefix of v", ErrMismatch)
	}
	// Step through m.StepByte, not the class table directly: a machine
	// serving from the sparse layout has no class transition table, and
	// the witness claim is about the language, not the representation.
	d := m.DFA
	q := d.Start
	for _, b := range u {
		q = m.StepByte(q, b)
	}
	if !d.IsFinal(q) {
		return fmt.Errorf("%w: witness u is not a token", ErrMismatch)
	}
	for i, b := range v[len(u):] {
		q = m.StepByte(q, b)
		last := i == k-1
		if !last && d.IsFinal(q) {
			return fmt.Errorf("%w: witness has a token strictly between u and v", ErrMismatch)
		}
		if last && !d.IsFinal(q) {
			return fmt.Errorf("%w: witness v is not a token", ErrMismatch)
		}
	}
	return nil
}

// VerifyAgainst checks the engine-dependent half of the certificate
// against a freshly built tokenizer: the mode and every byte bound must
// match exactly. A loader that rebuilds the engine from the shipped
// tables calls this after VerifyStatic; together they make every field
// of the certificate either replayed or recomputed.
func (c *Certificate) VerifyAgainst(t *core.Tokenizer) error {
	if got := t.EngineMode(); c.EngineMode != got {
		return fmt.Errorf("%w: engine mode %q != built engine's %q", ErrMismatch, c.EngineMode, got)
	}
	if c.DelayK != t.K() {
		return fmt.Errorf("%w: delay K %d != built engine's %d", ErrMismatch, c.DelayK, t.K())
	}
	if got := t.RingBytes(); c.RingBytes != got {
		return fmt.Errorf("%w: ring bytes %d != built engine's %d", ErrMismatch, c.RingBytes, got)
	}
	if got := t.TableBytes(); c.TableBytes != got {
		return fmt.Errorf("%w: table bytes %d != built engine's %d", ErrMismatch, c.TableBytes, got)
	}
	if got := t.AccelStates(); c.AccelStates != got {
		return fmt.Errorf("%w: accel states %d != built engine's %d", ErrMismatch, c.AccelStates, got)
	}
	if got := t.AccelSlots(); c.AccelSlots != got {
		return fmt.Errorf("%w: accel slots %d != built engine's %d", ErrMismatch, c.AccelSlots, got)
	}
	return nil
}

// Verify is VerifyStatic followed by VerifyAgainst: the full check a
// loader performs when it has both the machine and the rebuilt engine.
func (c *Certificate) Verify(m *tokdfa.Machine, maxTND int, t *core.Tokenizer) error {
	if err := c.VerifyStatic(m, maxTND); err != nil {
		return err
	}
	return c.VerifyAgainst(t)
}
