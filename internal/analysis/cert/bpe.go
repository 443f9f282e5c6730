package cert

import (
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
//     serves from the row-displacement sparse layout, which
//     SparseTableBytes records;
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
	c.SparseTableBytes = vm.Sparse.TableBytes()
	c.TableBytes += c.SparseTableBytes
	c.NumClasses = vm.DFA.NumClasses()
	c.DenseTableBytes = DenseDFABytes(vm) + DenseDFABytes(pm)
	return c, nil
}
