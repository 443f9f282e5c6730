package cert

import (
	"fmt"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/tokdfa"
)

// BPE certificates. A streaming BPE tokenizer is two machines — the
// vocab maximal-munch DFA (a raw scanner, no delay machinery) and the
// pretokenizer grammar running on an ordinary StreamTok engine — so its
// certificate is the pretokenizer's engine certificate with the vocab
// table folded into the resident footprint and the identity rebound to
// the vocabulary hash:
//
//   - GrammarHash holds the canonical vocabulary hash (Vocab.Hash), not
//     a grammar hash: the vocabulary is the artifact the registry keys
//     and budgets;
//   - EngineMode is "bpe+" plus the pretokenizer's mode;
//   - DelayK and the witness pair are the pretokenizer's — the vocab
//     scanner is piece-local and adds no stream-level delay;
//   - TableBytes adds the vocab DFA's serving tables to the
//     pretokenizer engine's (the registry charges both). The vocab DFA
//     is charged at its serving representation: the row-displacement
//     sparse layout when one was adopted (SparseTableBytes records it),
//     the class table otherwise;
//   - NumClasses and DenseTableBytes describe the vocab DFA (the
//     dominant table; the dense baseline sums both machines).

// NewBPE derives the certificate for a streaming BPE tokenizer:
// vocabHash identifies the vocabulary, vm is its compiled maximal-munch
// DFA, pm/res/t are the pretokenizer machine, its analysis result, and
// the engine built from it with k = res.MaxTND.
func NewBPE(vocabHash string, vm, pm *tokdfa.Machine, res analysis.Result, t *core.Tokenizer) (*Certificate, error) {
	c, err := New(pm, res, t)
	if err != nil {
		return nil, err
	}
	c.GrammarHash = vocabHash
	c.EngineMode = "bpe+" + t.EngineMode()
	c.TableBytes += vm.TableBytes()
	if vm.Sparse != nil {
		c.SparseTableBytes = vm.Sparse.TableBytes()
	}
	c.NumClasses = vm.DFA.NumClasses()
	c.DenseTableBytes = DenseDFABytes(vm) + DenseDFABytes(pm)
	return c, nil
}

// VerifyBPE checks a BPE certificate against the artifacts it claims to
// describe: the vocabulary hash, the compiled vocab DFA, and the
// pretokenizer machine with its rebuilt engine. Every field is either
// recomputed (hashes, byte counts, class counts, dichotomy bound) or
// replayed (the witness pair, on the pretokenizer DFA); any mismatch
// wraps ErrMismatch.
func (c *Certificate) VerifyBPE(vocabHash string, vm, pm *tokdfa.Machine, maxTND int, t *core.Tokenizer) error {
	if maxTND == analysis.Infinite {
		return fmt.Errorf("%w: certificate attached to an unbounded pretokenizer", ErrMismatch)
	}
	if c.GrammarHash != vocabHash {
		return fmt.Errorf("%w: vocab hash %.12s != artifact's %.12s", ErrMismatch, c.GrammarHash, vocabHash)
	}
	if want := "bpe+" + t.EngineMode(); c.EngineMode != want {
		return fmt.Errorf("%w: engine mode %q != built engine's %q", ErrMismatch, c.EngineMode, want)
	}
	if c.DelayK != maxTND {
		return fmt.Errorf("%w: delay K %d != pretokenizer max-TND %d", ErrMismatch, c.DelayK, maxTND)
	}
	if c.DelayK != t.K() {
		return fmt.Errorf("%w: delay K %d != built engine's %d", ErrMismatch, c.DelayK, t.K())
	}
	if want := analysis.DichotomyBound(pm.DFA.NumStates()); c.DichotomyBound != want {
		return fmt.Errorf("%w: dichotomy bound %d != pretokenizer DFA-size+1 = %d", ErrMismatch, c.DichotomyBound, want)
	}
	if c.CarryRetainedCap != core.MaxRetainedCarryCap {
		return fmt.Errorf("%w: carry cap %d != engine constant %d", ErrMismatch, c.CarryRetainedCap, core.MaxRetainedCarryCap)
	}
	if c.ParallelReworkX != ParallelReworkBound {
		return fmt.Errorf("%w: parallel rework %dx != fixed value %dx", ErrMismatch, c.ParallelReworkX, ParallelReworkBound)
	}
	if got := t.RingBytes(); c.RingBytes != got {
		return fmt.Errorf("%w: ring bytes %d != built engine's %d", ErrMismatch, c.RingBytes, got)
	}
	if want := vm.TableBytes() + t.TableBytes(); c.TableBytes != want {
		return fmt.Errorf("%w: table bytes %d != vocab %d + engine %d", ErrMismatch, c.TableBytes, vm.TableBytes(), t.TableBytes())
	}
	if vm.Sparse != nil {
		if got := vm.Sparse.TableBytes(); c.SparseTableBytes != got {
			return fmt.Errorf("%w: sparse table bytes %d != vocab DFA's %d", ErrMismatch, c.SparseTableBytes, got)
		}
		if err := vm.Sparse.Validate(); err != nil {
			return fmt.Errorf("%w: vocab sparse table invalid: %v", ErrMismatch, err)
		}
	} else if c.SparseTableBytes != 0 {
		return fmt.Errorf("%w: sparse table bytes %d on a class-table vocab DFA", ErrMismatch, c.SparseTableBytes)
	}
	if got := vm.DFA.NumClasses(); c.NumClasses != got {
		return fmt.Errorf("%w: %d byte classes != vocab DFA's %d", ErrMismatch, c.NumClasses, got)
	}
	if want := DenseDFABytes(vm) + DenseDFABytes(pm); c.DenseTableBytes != want {
		return fmt.Errorf("%w: dense table bytes %d != recomputed %d", ErrMismatch, c.DenseTableBytes, want)
	}
	if got := t.AccelStates(); c.AccelStates != got {
		return fmt.Errorf("%w: accel states %d != built engine's %d", ErrMismatch, c.AccelStates, got)
	}
	if got := t.AccelSlots(); c.AccelSlots != got {
		return fmt.Errorf("%w: accel slots %d != built engine's %d", ErrMismatch, c.AccelSlots, got)
	}
	if c.DelayK == 0 {
		if len(c.WitnessU) != 0 || len(c.WitnessV) != 0 {
			return fmt.Errorf("%w: witness pair on a K=0 certificate", ErrMismatch)
		}
		return nil
	}
	return replayWitness(pm, c.WitnessU, c.WitnessV, c.DelayK)
}
