// Package bpe compiles byte-pair-encoding vocabularies into streaming
// tokenizers served by the StreamTok machinery, following Berglund,
// Martens & van der Merwe, "Constructing a BPE Tokenization DFA"
// (arXiv:2405.07671).
//
// A BPE vocabulary is a rank-ordered list of byte-string tokens. The
// encoding of a text is defined by the merge process: repeatedly replace
// the adjacent token pair whose concatenation has the lowest rank
// (leftmost on ties) until no adjacent pair concatenates to a token —
// the tiktoken semantics every production LLM tokenizer implements. The
// package provides:
//
//   - Vocab: the ranked token table, loadable from tiktoken rank files
//     and Hugging Face tokenizer.json merge lists, with a canonical
//     serialization and stable hash for registry identity;
//   - a reference encoder (EncodePiece), the direct merge loop;
//   - Rules, the vocabulary as a maximal-munch tokenization grammar
//     (one literal rule per token, rule id = rank) whose DFA is the
//     greedy vocab DFA — which Compile builds directly as the token
//     trie (tokdfa.CompileLiterals);
//   - the local-validity machinery (SelfEncodes, Compatible) of the
//     BPE-DFA construction: a segmentation is the BPE encoding iff
//     every adjacent pair is compatible, which is what lets a greedy
//     DFA scan be certified exact without replaying the merge loop;
//   - a deterministic trainer (Train) used by tests and benchmarks to
//     synthesize realistic vocabularies without shipping model files.
package bpe

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Vocab is a BPE vocabulary: tokens in rank order. Rank doubles as the
// token id the encoder emits. A Vocab is immutable after construction
// and safe for concurrent use.
type Vocab struct {
	tokens   [][]byte       // tokens[r] = bytes of the rank-r token
	ranks    map[string]int // token bytes -> rank
	maxLen   int
	byteRank [256]int32 // rank of each single-byte token

	// Local-validity caches of the BPE-DFA construction, filled lazily
	// under mu: selfEnc[r] records whether token r's byte string
	// re-encodes to itself, pairOK whether an adjacent token pair
	// survives the merge process intact.
	mu      sync.Mutex
	selfEnc []int8 // 0 unknown, 1 yes, -1 no
	pairOK  map[uint64]bool
}

// ErrIncomplete is returned by NewVocab when some byte has no
// single-byte token: such a vocabulary cannot encode arbitrary input.
var ErrIncomplete = errors.New("bpe: vocabulary lacks a single-byte token for some byte value")

// NewVocab builds a vocabulary from tokens in rank order. Tokens must be
// nonempty, distinct, and include every single byte 0x00-0xff (the
// base alphabet of byte-level BPE); the encoder depends on totality.
func NewVocab(tokens [][]byte) (*Vocab, error) {
	v := &Vocab{
		tokens: make([][]byte, len(tokens)),
		ranks:  make(map[string]int, len(tokens)),
	}
	var haveByte [256]bool
	for r, tok := range tokens {
		if len(tok) == 0 {
			return nil, fmt.Errorf("bpe: rank %d is empty", r)
		}
		s := string(tok)
		if prev, dup := v.ranks[s]; dup {
			return nil, fmt.Errorf("bpe: token %q has both rank %d and %d", s, prev, r)
		}
		v.tokens[r] = []byte(s)
		v.ranks[s] = r
		if len(tok) == 1 {
			haveByte[tok[0]] = true
			v.byteRank[tok[0]] = int32(r)
		}
		if len(tok) > v.maxLen {
			v.maxLen = len(tok)
		}
	}
	for b := 0; b < 256; b++ {
		if !haveByte[b] {
			return nil, fmt.Errorf("%w (byte 0x%02x)", ErrIncomplete, b)
		}
	}
	v.selfEnc = make([]int8, len(v.tokens))
	v.pairOK = make(map[uint64]bool)
	return v, nil
}

// Size returns the number of tokens.
func (v *Vocab) Size() int { return len(v.tokens) }

// MaxTokenLen returns the longest token's byte length.
func (v *Vocab) MaxTokenLen() int { return v.maxLen }

// Token returns the bytes of the rank-r token. The slice is owned by the
// vocabulary; do not modify it.
func (v *Vocab) Token(r int) []byte { return v.tokens[r] }

// Rank returns the rank of tok and whether it is in the vocabulary.
func (v *Vocab) Rank(tok []byte) (int, bool) {
	r, ok := v.ranks[string(tok)]
	return r, ok
}

// rankStr is Rank on a string key (no conversion allocation on lookup).
func (v *Vocab) rankStr(tok string) (int, bool) {
	r, ok := v.ranks[tok]
	return r, ok
}

// AppendCanonical appends the canonical serialization of the vocabulary:
// "bpevocab1" then each token in rank order as uvarint length + bytes.
// Two vocabularies serialize equal exactly when they have the same
// tokens at the same ranks — the identity Hash digests and the serving
// registry keys vocab entries under.
func (v *Vocab) AppendCanonical(dst []byte) []byte {
	dst = append(dst, "bpevocab1\x00"...)
	var tmp [binary.MaxVarintLen64]byte
	for _, tok := range v.tokens {
		n := binary.PutUvarint(tmp[:], uint64(len(tok)))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, tok...)
	}
	return dst
}

// Hash returns the stable hex identity of the vocabulary: a SHA-256
// over the canonical serialization.
func (v *Vocab) Hash() string {
	h := sha256.New()
	h.Write(v.AppendCanonical(nil))
	return hex.EncodeToString(h.Sum(nil))
}

// WriteTiktoken renders the vocabulary in the tiktoken rank file format:
// one "base64(token) rank" line per token, in rank order.
func (v *Vocab) WriteTiktoken() []byte {
	var out []byte
	for r, tok := range v.tokens {
		out = base64.StdEncoding.AppendEncode(out, tok)
		out = append(out, ' ')
		out = strconv.AppendInt(out, int64(r), 10)
		out = append(out, '\n')
	}
	return out
}

// sortTokensByRank orders (token, rank) pairs by rank and validates the
// ranks form 0..n-1 exactly.
func sortTokensByRank(toks [][]byte, ranks []int) ([][]byte, error) {
	if len(toks) != len(ranks) {
		return nil, errors.New("bpe: token/rank length mismatch")
	}
	idx := make([]int, len(toks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] < ranks[idx[b]] })
	out := make([][]byte, len(toks))
	for pos, i := range idx {
		if ranks[i] != pos {
			return nil, fmt.Errorf("bpe: ranks are not dense: want %d, have %d", pos, ranks[i])
		}
		out[pos] = toks[i]
	}
	return out, nil
}
