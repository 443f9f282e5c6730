package streamtok

import (
	"bytes"
	"fmt"
	"os"

	"streamtok/internal/analysis/cert"
	"streamtok/internal/bpe"
)

// Vocab is a BPE vocabulary: tokens in rank order, the LLM-tokenization
// frontend of Compile. Compiling a Vocab yields a Tokenizer that emits
// exact BPE encodings (Token.Rule is the rank) as a stream: a tiny
// pretokenizer grammar runs on the ordinary bounded-memory engine and
// each piece is encoded by a greedy vocab-DFA scan whose output is
// certified against the merge semantics by the local-validity check of
// the BPE-DFA construction (Berglund et al., arXiv:2405.07671), falling
// back to the exact merge loop when certification fails. Immutable and
// safe for concurrent use.
type Vocab struct {
	v *bpe.Vocab
}

// ParseTiktoken parses a tiktoken-format rank file ("base64(token)
// rank" lines, dense ranks).
func ParseTiktoken(data []byte) (*Vocab, error) {
	v, err := bpe.ParseTiktoken(data)
	if err != nil {
		return nil, err
	}
	return &Vocab{v: v}, nil
}

// ParseTokenizerJSON parses a minimal Hugging Face tokenizer.json
// (model.vocab and model.merges; byte-level BPE models only).
func ParseTokenizerJSON(data []byte) (*Vocab, error) {
	v, err := bpe.ParseTokenizerJSON(data)
	if err != nil {
		return nil, err
	}
	return &Vocab{v: v}, nil
}

// ParseVocab parses vocabulary data in either supported format,
// sniffing which: tokenizer.json files start with '{', tiktoken rank
// files do not.
func ParseVocab(data []byte) (*Vocab, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		return ParseTokenizerJSON(data)
	}
	return ParseTiktoken(data)
}

// LoadVocab reads and parses a vocabulary file in either supported
// format.
func LoadVocab(path string) (*Vocab, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := ParseVocab(data)
	if err != nil {
		return nil, fmt.Errorf("vocab file %s: %w", path, err)
	}
	return v, nil
}

// TrainVocab learns a vocabulary from corpus by byte-pair merging:
// numMerges merges on top of the 256 byte tokens, tokens capped at
// maxTokenLen bytes (0 = default 16). Deterministic in the corpus. It
// exists so tests, benchmarks, and demos can synthesize realistic
// vocabularies without shipping model files.
func TrainVocab(corpus []byte, numMerges, maxTokenLen int) (*Vocab, error) {
	v, err := bpe.Train(corpus, numMerges, bpe.TrainOptions{MaxTokenLen: maxTokenLen})
	if err != nil {
		return nil, err
	}
	return &Vocab{v: v}, nil
}

// Size returns the number of tokens (256 byte tokens + merges).
func (v *Vocab) Size() int { return v.v.Size() }

// MaxTokenLen returns the longest token's byte length.
func (v *Vocab) MaxTokenLen() int { return v.v.MaxTokenLen() }

// Token returns the bytes of the rank-r token (owned by the
// vocabulary; do not modify).
func (v *Vocab) Token(r int) []byte { return v.v.Token(r) }

// Rank returns the rank of tok and whether it is in the vocabulary.
func (v *Vocab) Rank(tok []byte) (int, bool) { return v.v.Rank(tok) }

// Hash returns the stable hex identity of the vocabulary (SHA-256 of
// the canonical serialization) — the key registries cache under and
// the identity its resource certificate binds to.
func (v *Vocab) Hash() string { return v.v.Hash() }

// Encode appends the reference BPE encoding of text to dst: the direct
// merge-loop semantics, no automata. The compiled Tokenizer emits
// exactly this sequence; differential tests pin it there.
func (v *Vocab) Encode(dst []int, text []byte) []int { return v.v.Encode(dst, text) }

// Decode appends the concatenated bytes of ranks to dst.
func (v *Vocab) Decode(dst []byte, ranks []int) []byte { return v.v.Decode(dst, ranks) }

// WriteTiktoken renders the vocabulary in the tiktoken rank-file
// format.
func (v *Vocab) WriteTiktoken() []byte { return v.v.WriteTiktoken() }

// compile makes *Vocab a Source: the LLM-tokenization frontend.
// Options.Minimize is ignored: the vocab DFA is built as the token trie,
// which is already minimal, and the pretokenizer is always minimized.
// The engine-selection fields apply to the pretokenizer, which shares
// MaxFusedTableBytes with the vocab DFA table.
func (v *Vocab) compile(opts Options) (*Tokenizer, error) {
	bt, err := bpe.Compile(v.v, bpe.Options{
		MaxTeDFAStates:     opts.MaxTeDFAStates,
		MaxFusedTableBytes: opts.MaxFusedTableBytes,
	})
	if err != nil {
		return nil, err
	}
	c, err := cert.NewBPE(v.v.Hash(), bt.VocabMachine(), bt.PretokMachine(), bt.PretokAnalysis(), bt.PretokEngine())
	if err != nil {
		return nil, err
	}
	return &Tokenizer{
		eng:       bt,
		ruleNames: grammarRuleNames(bt.PretokMachine().Grammar),
		vocab:     v,
		cert:      c,
		an: Analysis{
			MaxTND:  bt.K(),
			Bounded: true,
			NFASize: bt.VocabMachine().NFASize,
			DFASize: bt.VocabMachine().DFA.NumStates(),
		},
	}, nil
}
