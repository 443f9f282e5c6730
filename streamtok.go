// Package streamtok is a streaming maximal-munch tokenizer with static
// grammar analysis, implementing Li, Yang & Mamouras, "Static Analysis for
// Efficient Streaming Tokenization" (ASPLOS 2026).
//
// A tokenization grammar is a list of regular expressions (rules); the
// tokenizer splits an input stream into tokens under the maximal-munch
// (longest match, earliest rule) policy. The package provides:
//
//   - a static analysis (Analyze) computing the grammar's maximum token
//     neighbor distance (max-TND), the semantic quantity that determines
//     whether bounded-memory streaming tokenization is possible;
//   - StreamTok (New/Tokenizer), a backtracking-free O(n) streaming
//     tokenizer for grammars with finite max-TND, with memory use
//     independent of the stream length;
//   - the baselines the paper evaluates against: the flex-style
//     backtracking algorithm, Reps' memoized tokenizer, and the offline
//     two-pass ExtOracle;
//   - a catalog of grammars for common data formats (JSON, CSV, TSV, XML,
//     YAML, FASTA, DNS zones, system logs);
//   - a BPE/LLM tokenization frontend (Vocab): tiktoken rank files and
//     Hugging Face tokenizer.json vocabularies compile to streaming
//     exact-BPE tokenizers through the same pipeline.
//
// Compile is the primary constructor: it accepts any Source — a
// *Grammar, a *Vocab, or a MachineFile handle — and every frontend
// yields the same Tokenizer, certified by the same static analysis.
//
// Quick start:
//
//	g, _ := streamtok.ParseGrammar(`[0-9]+`, `[a-z]+`, `[ \t\n]+`)
//	tok, _ := streamtok.Compile(g, streamtok.Options{Minimize: true})
//	tok.Tokenize(os.Stdin, 0, func(t streamtok.Token, text []byte) {
//	    fmt.Printf("%d: %q\n", t.Rule, text)
//	})
//
// New(g) is sugar for exactly that Compile call. For LLM tokenization,
// compile a vocabulary instead of a grammar:
//
//	v, _ := streamtok.LoadVocab("cl100k_base.tiktoken")
//	tok, _ := streamtok.Compile(v, streamtok.Options{})
//	tok.Tokenize(os.Stdin, 0, func(t streamtok.Token, _ []byte) {
//	    fmt.Println(t.Rule) // the BPE rank
//	})
package streamtok

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// Token is one output token: its location in the stream and the rule id
// that matched it (the least index among the longest matches).
type Token = token.Token

// EmitFunc receives each token as it is confirmed maximal. text holds the
// token's bytes and is valid only until the next tokenizer call.
type EmitFunc = core.EmitFunc

// BatchFunc receives tokens in batches (FeedBatch/CloseBatch): the hot
// loop buffers confirmed tokens and flushes them together, trading one
// indirect call per token for one per batch. The slice is reused across
// calls — copy it out to retain it. Tokens carry offsets only; slice the
// input yourself if you need text.
type BatchFunc = core.BatchFunc

// Grammar is a tokenization grammar: an ordered, nonempty list of rules.
type Grammar struct {
	g *tokdfa.Grammar
}

// ParseGrammar parses one regular expression per rule, in PCRE-ish syntax
// (classes, ranges, negation, ., escapes, |, *, +, ?, {m,n}).
func ParseGrammar(rules ...string) (*Grammar, error) {
	g, err := tokdfa.ParseGrammar(rules...)
	if err != nil {
		return nil, err
	}
	return &Grammar{g: g}, nil
}

// MustParseGrammar is ParseGrammar that panics on error.
func MustParseGrammar(rules ...string) *Grammar {
	g, err := ParseGrammar(rules...)
	if err != nil {
		panic(err)
	}
	return g
}

// Named assigns names to the rules, in order, and returns the grammar.
func (g *Grammar) Named(names ...string) *Grammar {
	g.g.Named(names...)
	return g
}

// RuleName returns the name of rule id beta.
func (g *Grammar) RuleName(beta int) string { return g.g.RuleName(beta) }

// NumRules returns the number of rules.
func (g *Grammar) NumRules() int { return len(g.g.Rules) }

// Rules returns the grammar's rules re-rendered as parseable regex
// source, in order. The rendering is canonical for a parsed grammar
// (parse → render → parse is a fixpoint), which is what makes Hash a
// stable identity for caches.
func (g *Grammar) Rules() []string {
	out := make([]string, len(g.g.Rules))
	for i := range out {
		out[i] = g.g.RuleSource(i)
	}
	return out
}

// Hash returns a stable hex identity for the grammar: a SHA-256 over
// the rule names and canonical rule sources, in order. Two grammars
// hash equal exactly when they have the same rules (same regexes, same
// order, same names) — the key the serving registry caches compiled
// tokenizers under, and the identity resource certificates bind to.
func (g *Grammar) Hash() string { return g.g.Hash() }

// String renders the grammar as r_0 | r_1 | ... .
func (g *Grammar) String() string { return g.g.String() }

// Catalog lists the built-in grammar names (json, csv, tsv, xml, yaml,
// fasta, dns, log, sql-inserts, and the unbounded c, r, sql,
// csv-rfc4180).
func Catalog() []string { return grammars.Names() }

// CatalogGrammar returns a built-in grammar by name.
func CatalogGrammar(name string) (*Grammar, error) {
	spec, err := grammars.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &Grammar{g: spec.Grammar()}, nil
}

// Analysis is the result of the static analysis of a grammar.
type Analysis struct {
	// MaxTND is the maximum token neighbor distance; valid only when
	// Bounded is true.
	MaxTND int
	// Bounded reports whether MaxTND is finite — i.e. whether StreamTok
	// applies to the grammar.
	Bounded bool
	// NFASize and DFASize are the automaton sizes (DFASize is of the
	// minimized tokenization DFA).
	NFASize int
	DFASize int
	// WitnessU and WitnessV, when Bounded and MaxTND > 0, are a token
	// neighbor pair realizing the maximum distance: both are tokens,
	// WitnessU is a strict prefix of WitnessV, nothing between them is
	// a token, and len(WitnessV)-len(WitnessU) == MaxTND.
	WitnessU []byte
	WitnessV []byte
}

// TND renders the distance alone: the number, or "inf" when unbounded.
func (a Analysis) TND() string {
	if !a.Bounded {
		return "inf"
	}
	return fmt.Sprintf("%d", a.MaxTND)
}

// String renders the analysis on one line: the distance and the
// automaton sizes it was computed from.
func (a Analysis) String() string {
	return fmt.Sprintf("max-TND %s (NFA %d, DFA %d)", a.TND(), a.NFASize, a.DFASize)
}

// MarshalJSON renders the analysis with stable snake_case keys (shared
// by tnd -json); max_tnd is null when the distance is unbounded, and
// the witness pair appears only when one exists.
func (a Analysis) MarshalJSON() ([]byte, error) {
	var maxTND *int
	if a.Bounded {
		maxTND = &a.MaxTND
	}
	return json.Marshal(struct {
		MaxTND    *int   `json:"max_tnd"`
		Bounded   bool   `json:"bounded"`
		NFAStates int    `json:"nfa_states"`
		DFAStates int    `json:"dfa_states"`
		WitnessU  string `json:"witness_u,omitempty"`
		WitnessV  string `json:"witness_v,omitempty"`
	}{maxTND, a.Bounded, a.NFASize, a.DFASize, string(a.WitnessU), string(a.WitnessV)})
}

// Analyze runs the Fig. 3 static analysis: it compiles the grammar to its
// tokenization DFA (minimized) and computes the max-TND.
func Analyze(g *Grammar) (Analysis, error) {
	m, err := tokdfa.Compile(g.g, tokdfa.Options{Minimize: true})
	if err != nil {
		return Analysis{}, err
	}
	res := analysis.Analyze(m)
	out := Analysis{
		MaxTND:  res.MaxTND,
		Bounded: res.Bounded(),
		NFASize: res.NFASize,
		DFASize: res.DFASize,
	}
	if u, v, ok := analysis.WitnessStrings(m, res); ok {
		out.WitnessU, out.WitnessV = u, v
	}
	return out, nil
}

// ErrUnbounded is reported (wrapped) by New when the grammar's max-TND is
// infinite and StreamTok therefore cannot tokenize it in bounded memory.
var ErrUnbounded = errors.New("streamtok: grammar has unbounded max token neighbor distance")

// Options configures tokenizer construction.
type Options struct {
	// Minimize minimizes the tokenization DFA (default true via New;
	// set by NewWithOptions callers explicitly).
	Minimize bool
	// MaxTeDFAStates caps the eager expansion of the token-extension
	// DFA (0 = 4096 states). Only a K ≥ 2 grammar the split loop serves
	// builds a TeDFA: one that does not pack into the fused engine, or
	// any under a negative MaxFusedTableBytes. When the TeDFA is larger
	// than the cap the grammar is served lazily: each stream grows its
	// own copy of the TeDFA on first use of every transition, and that
	// per-stream cache is not capped (it holds only the powerstates the
	// stream visits).
	MaxTeDFAStates int
	// MaxFusedTableBytes caps the resident bytes of the fused action
	// tables (0 = the 16 MB default). Grammars whose fused tables exceed
	// the cap serve from the split loops instead — same token stream,
	// smaller footprint; a negative cap keeps every grammar on the split
	// loops (ablation). Tables are byte-class compressed, so the cap is
	// checked against C-column tables (C = byte-class count), letting far
	// larger grammars stay fused than the dense layout would.
	MaxFusedTableBytes int
}

// Certificate is a statically derived resource certificate: the
// machine-checkable cost claims (delay K with witness, ring/carry/table
// byte bounds, accel coverage) for one grammar on the engine the
// tokenizer selected. See internal/analysis/cert for the claim-by-claim
// documentation and the verification rules.
type Certificate = cert.Certificate

// Tokenizer is a compiled StreamTok tokenizer. It is immutable and safe
// for concurrent use; each concurrent stream needs its own Streamer.
//
// Every source compiles to one engine behind the same stream contract:
// a grammar to the StreamTok engine that tokenizes it, a vocabulary to
// the BPE encoder layered on its pretokenizer engine. The tokenizer
// drives whichever it holds the same way, and reads its observability
// counters and engine description from it.
type Tokenizer struct {
	eng       core.Engine
	ruleNames []string // the rules Stats.TokensByRule counts (a vocabulary's pretokenizer rules)
	vocab     *Vocab   // the source, when it was a vocabulary
	an        Analysis
	cert      *Certificate
	wrapPool  sync.Pool // recycles the Streamer wrapper structs
}

// grammarRuleNames lists g's rule names in rule order.
func grammarRuleNames(g *tokdfa.Grammar) []string {
	names := make([]string, len(g.Rules))
	for i := range names {
		names[i] = g.RuleName(i)
	}
	return names
}

// New compiles g, runs the static analysis, and builds the StreamTok
// tokenizer. It is sugar for Compile(g, Options{Minimize: true}) and
// fails with an error wrapping ErrUnbounded when the grammar's max-TND
// is infinite.
func New(g *Grammar) (*Tokenizer, error) {
	return Compile(g, Options{Minimize: true})
}

// NewWithOptions is New with explicit options: sugar for
// Compile(g, opts).
func NewWithOptions(g *Grammar, opts Options) (*Tokenizer, error) {
	return Compile(g, opts)
}

// newWithOptions is the grammar frontend's compilation pipeline.
func newWithOptions(g *Grammar, opts Options) (*Tokenizer, error) {
	m, err := tokdfa.Compile(g.g, tokdfa.Options{Minimize: opts.Minimize})
	if err != nil {
		return nil, err
	}
	res := analysis.Analyze(m)
	if !res.Bounded() {
		return nil, fmt.Errorf("%w (grammar %s)", ErrUnbounded, g.g.String())
	}
	limits := tepath.Limits{MaxDFAStates: opts.MaxTeDFAStates}
	inner, err := core.NewWithKBudget(m, res.MaxTND, limits, opts.MaxFusedTableBytes)
	if err != nil {
		return nil, err
	}
	c, err := cert.New(m, res, inner)
	if err != nil {
		return nil, err
	}
	return &Tokenizer{
		eng:       inner,
		ruleNames: grammarRuleNames(m.Grammar),
		cert:      c,
		an: Analysis{
			MaxTND:  res.MaxTND,
			Bounded: true,
			NFASize: res.NFASize,
			DFASize: res.DFASize,
		},
	}, nil
}

// Analysis returns the static-analysis result the tokenizer was built
// from.
func (t *Tokenizer) Analysis() Analysis { return t.an }

// Certificate returns the tokenizer's resource certificate: the
// statically derived, machine-checkable cost bounds for this grammar on
// the engine the tokenizer selected. Never nil for a built tokenizer.
func (t *Tokenizer) Certificate() *Certificate { return t.cert }

// K returns the lookahead bound (the grammar's max-TND; for a
// vocabulary source, the pretokenizer's).
func (t *Tokenizer) K() int { return t.eng.K() }

// Vocab returns the vocabulary this tokenizer was compiled from, or nil
// when the source was a grammar or machine file. When non-nil,
// Token.Rule values are BPE ranks into it.
func (t *Tokenizer) Vocab() *Vocab { return t.vocab }

// Tokenize reads the stream block-by-block (bufSize bytes per read; 0
// means the 64 KB default) and calls emit for every maximal token. It
// returns the offset of the first untokenized byte — the stream length
// when the whole stream tokenized — and any read error.
func (t *Tokenizer) Tokenize(r io.Reader, bufSize int, emit EmitFunc) (rest int, err error) {
	return core.TokenizeChunks(context.Background(), t.eng, r, bufSize, emit)
}

// TokenizeContext is Tokenize with cancellation: ctx is checked between
// read blocks (never inside the feed loop), so a cancelled or timed-out
// context stops the stream at a chunk boundary and returns ctx.Err()
// along with the offset reached.
func (t *Tokenizer) TokenizeContext(ctx context.Context, r io.Reader, bufSize int, emit EmitFunc) (rest int, err error) {
	return core.TokenizeChunks(ctx, t.eng, r, bufSize, emit)
}

// TokenizeBytes tokenizes an in-memory input and returns the tokens and
// the offset of the first untokenized byte.
func (t *Tokenizer) TokenizeBytes(input []byte) ([]Token, int) {
	return core.TokenizeBytes(t.eng, input)
}

// Streamer is a push-mode tokenizer for one stream: call Feed with chunks
// as they arrive and Close at end of stream.
type Streamer struct {
	s   core.Stream // nil once released
	tok *Tokenizer  // owner, for rule names in Stats snapshots
}

// NewStreamer starts a fresh stream.
func (t *Tokenizer) NewStreamer() *Streamer {
	return &Streamer{s: t.eng.AcquireStream(), tok: t}
}

// AcquireStreamer returns a streamer for a fresh stream, reusing a
// previously released one when available. A warm streamer keeps its
// carry buffer, delay ring, scratch space, and counters, so the
// steady-state serving loop (acquire, feed, close, release) performs no
// heap allocations. Pair every acquire with ReleaseStreamer.
func (t *Tokenizer) AcquireStreamer() *Streamer {
	if v := t.wrapPool.Get(); v != nil {
		s := v.(*Streamer)
		s.s = t.eng.AcquireStream()
		return s
	}
	return t.NewStreamer()
}

// ReleaseStreamer recycles s for a future AcquireStreamer, folding its
// stream's counters into the tokenizer's observability aggregate if the
// stream did not already finish. s must have come from this tokenizer
// and must not be used after release.
func (t *Tokenizer) ReleaseStreamer(s *Streamer) {
	if s == nil || s.tok != t || s.s == nil {
		return
	}
	t.eng.ReleaseStream(s.s)
	s.s = nil
	t.wrapPool.Put(s)
}

// Feed pushes a chunk through the tokenizer, emitting any tokens whose
// maximality the chunk confirms. Each byte is examined O(1) times; no
// backtracking occurs.
func (s *Streamer) Feed(chunk []byte, emit EmitFunc) { s.s.Feed(chunk, emit) }

// FeedBatch is Feed with batched emission: tokens are buffered and sink
// is invoked with batches of them (at buffer pressure and once at the
// chunk boundary), cutting the per-token indirect-call overhead on
// token-dense streams. The token stream is identical to Feed's.
func (s *Streamer) FeedBatch(chunk []byte, sink BatchFunc) { s.s.FeedBatch(chunk, sink) }

// Close signals end of stream, drains the delayed lookahead bytes, and
// returns the offset of the first untokenized byte.
func (s *Streamer) Close(emit EmitFunc) int { return s.s.Close(emit) }

// CloseBatch is Close with batched emission of the drained tail tokens.
func (s *Streamer) CloseBatch(sink BatchFunc) int { return s.s.CloseBatch(sink) }

// Reset abandons the current stream (its counters still reach the
// tokenizer aggregate) and makes the streamer ready for a fresh one,
// reusing every buffer it holds.
func (s *Streamer) Reset() { s.s.Reset() }

// Stopped reports whether tokenization terminated early because the
// remaining input matches no rule.
func (s *Streamer) Stopped() bool { return s.s.Stopped() }

// Rest returns the offset of the first untokenized byte; it is
// meaningful once Stopped reports true or Close has been called.
func (s *Streamer) Rest() int { return s.s.Rest() }

// Offset returns the absolute stream offset of the next byte Feed will
// consume — the total bytes fed into the logical stream, including any
// suspended segments before a Resume.
func (s *Streamer) Offset() int { return s.s.Offset() }

// PendingStart returns the stream offset where the pending (not yet
// emitted) token begins — always a true token boundary, and the offset
// a cursor taken now would resume from.
func (s *Streamer) PendingStart() int { return s.s.PendingStart() }
