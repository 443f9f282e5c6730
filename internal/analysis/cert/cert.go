// Package cert derives resource certificates for compiled tokenization
// grammars: machine-checkable statements of what a grammar costs to
// serve, produced by the static analysis and bound to the concrete
// engine the tokenizer selected.
//
// A certificate bundles
//
//   - the emission delay K (the grammar's max-TND) with its Lemma 11
//     dichotomy bound and a witness token neighbor pair replaying the
//     lower bound;
//   - the exact per-stream byte bounds: the delay-ring allocation and
//     the retained-carry cap;
//   - the shared per-grammar bytes: the precomputed automata and fused
//     action tables;
//   - the accel-state coverage fraction (share of fused slots with bulk
//     run skipping).
//
// One more field, ParallelReworkX, is kept only so that machine files
// keep their layout; it always holds 2.
//
// The fields fall in two halves. The file half — grammar hash, K, the
// dichotomy bound, the witness pair, the class count and the dense and
// sparse table bytes — is a claim about the grammar and its tables:
// VerifyStatic recomputes or replays every field of it from the machine
// alone, and a machine file whose file half does not verify is refused.
// The engine half — mode, ring bytes, table bytes and accel coverage —
// describes the engine one build constructs from those tables, so it is
// never taken from the file: BindEngine derives it from the engine
// actually built, both when a certificate is first made and when a
// loader receives a stored one. A stored engine half that differs (a
// file written by a build with another engine layout, or loaded under
// other engine options) marks the certificate Recertified; the file
// still loads, and every budget charge uses the derived bytes.
package cert

import (
	"encoding/json"
	"fmt"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/tokdfa"
)

// ParallelReworkBound is the only value ParallelReworkX may hold. The
// field is a retained format field: the speculative segment-parallel
// mode it once bounded is gone, but machine files still carry it, so
// every certificate records 2 and verification checks it as a constant.
const ParallelReworkBound = 2

// Certificate is a statically derived resource certificate for one
// compiled grammar on one engine. It is immutable once a tokenizer
// holds it.
type Certificate struct {
	// GrammarHash is the grammar identity the certificate binds to
	// (tokdfa.Grammar.Hash / streamtok.Grammar.Hash).
	GrammarHash string

	// DelayK is the emission delay bound: the grammar's max-TND. Every
	// steady-state emission is confirmed at most DelayK bytes past the
	// token's end.
	DelayK int
	// DichotomyBound is the Lemma 11 bound DelayK is certified against:
	// max-TND is either ∞ or ≤ minimal-DFA-size + 1.
	DichotomyBound int
	// WitnessU and WitnessV, present when DelayK > 0, replay the lower
	// bound: both are tokens, WitnessU a strict prefix of WitnessV,
	// nothing strictly between them is a token, and
	// len(WitnessV)-len(WitnessU) == DelayK.
	WitnessU []byte
	WitnessV []byte

	// EngineMode is the execution mode the bounds below are exact for
	// (core.Tokenizer.EngineMode).
	EngineMode string
	// RingBytes is the exact delay-ring allocation per stream.
	RingBytes int
	// CarryRetainedCap is the bound on the carry backing array a stream
	// retains between tokens (core.MaxRetainedCarryCap).
	CarryRetainedCap int
	// TableBytes is the shared, per-grammar footprint of the precomputed
	// automata and action tables — the resident bytes the serving
	// registry's memory budget sums. Tables are byte-class compressed,
	// so this is the real (compressed) footprint, class maps included.
	TableBytes int
	// SparseTableBytes is set on vocab certificates only (NewBPE): the
	// resident footprint of the row-displacement sparse table the vocab
	// DFA serves from. It is included in TableBytes; carrying it
	// separately lets status surfaces report the vocab table's share.
	// Grammar certificates, the only ones machine files carry, leave it
	// 0, and VerifyStatic refuses one that does not.
	SparseTableBytes int
	// NumClasses is the byte-class count C of the compressed tables:
	// the 256 byte values partition into C column-equivalence classes
	// and every table stores C columns per state. 0 on certificates
	// decoded from dense-era (format < 3) files, which predate the field.
	NumClasses int
	// DenseTableBytes is what the tokenization DFA's transition and
	// accept tables would occupy in the dense 256-ary layout of format
	// versions < 3 — the baseline the ~C/256 compression ratio is quoted
	// against. 0 on dense-era certificates.
	DenseTableBytes int
	// AccelStates and AccelSlots give the accel coverage fraction:
	// AccelStates of AccelSlots fused slots carry bulk run skipping
	// (both 0 when the fused engine is off).
	AccelStates int
	AccelSlots  int

	// ParallelReworkX is a retained format field that no engine reads:
	// machine files encode it and verification pins it at
	// ParallelReworkBound, so files written before the speculative
	// parallel mode was removed still load.
	ParallelReworkX int

	// Recertified reports that a loader found a stored engine half that
	// differed from the one BindEngine derived from the engine it built.
	// It is never encoded in machine files.
	Recertified bool
}

// New derives the certificate for machine m with analysis result res,
// bound to the concrete engine t (which must have been built from m
// with k = res.MaxTND). It returns an error when res is unbounded —
// unbounded grammars have no resource certificate, only a rejection.
func New(m *tokdfa.Machine, res analysis.Result, t *core.Tokenizer) (*Certificate, error) {
	if !res.Bounded() {
		return nil, fmt.Errorf("cert: grammar has unbounded max-TND, no resource certificate exists")
	}
	if t.K() != res.MaxTND {
		return nil, fmt.Errorf("cert: engine built with K=%d but analysis says max-TND %d", t.K(), res.MaxTND)
	}
	c := &Certificate{
		GrammarHash:      m.Grammar.Hash(),
		DelayK:           res.MaxTND,
		DichotomyBound:   analysis.DichotomyBound(m.DFA.NumStates()),
		CarryRetainedCap: core.MaxRetainedCarryCap,
		NumClasses:       m.DFA.NumClasses(),
		DenseTableBytes:  DenseDFABytes(m),
		ParallelReworkX:  ParallelReworkBound,
	}
	c.BindEngine(t)
	if res.MaxTND > 0 {
		u, v, ok := analysis.WitnessStrings(m, res)
		if !ok {
			return nil, fmt.Errorf("cert: no witness pair for max-TND %d", res.MaxTND)
		}
		c.WitnessU, c.WitnessV = u, v
	}
	return c, nil
}

// BindEngine fills in the engine half of c — mode, ring bytes, table
// bytes and accel coverage — from t, the engine that serves it, and
// reports whether any of those fields changed. New calls it on a fresh
// certificate (NewBPE then folds the vocab DFA in), and a loader calls
// it on a stored one after VerifyStatic passed.
func (c *Certificate) BindEngine(t *core.Tokenizer) (changed bool) {
	was := *c
	c.EngineMode, c.RingBytes, c.TableBytes = t.EngineMode(), t.RingBytes(), t.TableBytes()
	c.AccelStates, c.AccelSlots = t.AccelStates(), t.AccelSlots()
	return c.EngineMode != was.EngineMode || c.RingBytes != was.RingBytes ||
		c.TableBytes != was.TableBytes || c.AccelStates != was.AccelStates ||
		c.AccelSlots != was.AccelSlots
}

// DenseDFABytes returns the bytes m's tokenization DFA tables would
// occupy in the dense 256-ary layout (4-byte entry per state per byte
// value, plus the accept labels) — the baseline a certificate's
// compression ratio is quoted against.
func DenseDFABytes(m *tokdfa.Machine) int {
	return m.DFA.NumStates()*256*4 + len(m.DFA.Accept)*4
}

// CompressionRatio returns TableBytes relative to the dense-layout DFA
// baseline (0 when the certificate predates class compression). Values
// well under 1 are the point: C/256 scaling with C typically 10–60.
func (c *Certificate) CompressionRatio() float64 {
	if c.DenseTableBytes == 0 {
		return 0
	}
	return float64(c.TableBytes) / float64(c.DenseTableBytes)
}

// AccelCoverage returns the fraction of fused slots with bulk run
// skipping (0 when the fused engine is off).
func (c *Certificate) AccelCoverage() float64 {
	if c.AccelSlots == 0 {
		return 0
	}
	return float64(c.AccelStates) / float64(c.AccelSlots)
}

// ResidentBytes is the per-grammar shared footprint a registry charges
// against its memory budget: the certified table bytes. (Per-stream
// state — ring and carry — scales with the concurrency cap instead and
// is reported by StreamBytes.)
func (c *Certificate) ResidentBytes() int { return c.TableBytes }

// StreamBytes is the certified worst-case retained per-stream state:
// the delay-ring allocation plus the carry retention cap.
func (c *Certificate) StreamBytes() int { return c.RingBytes + c.CarryRetainedCap }

// String renders the certificate on one line, for status pages and CLI
// output next to EngineInfo.
func (c *Certificate) String() string {
	classes := ""
	if c.NumClasses > 0 {
		classes = fmt.Sprintf(" (%d classes)", c.NumClasses)
	}
	if c.SparseTableBytes > 0 {
		classes += fmt.Sprintf(" (sparse %d B)", c.SparseTableBytes)
	}
	recert := ""
	if c.Recertified {
		recert = " (recertified)"
	}
	return fmt.Sprintf("K=%d (≤ dichotomy %d), ring %d B, carry ≤ %d B, tables %d B%s, accel %d/%d slots%s",
		c.DelayK, c.DichotomyBound, c.RingBytes, c.CarryRetainedCap,
		c.TableBytes, classes, c.AccelStates, c.AccelSlots, recert)
}

// MarshalJSON renders the certificate with stable snake_case keys
// (shared by tnd -certify -json, streamtok -stats json, and /metrics).
func (c *Certificate) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		GrammarHash      string  `json:"grammar_hash"`
		DelayK           int     `json:"delay_k"`
		DichotomyBound   int     `json:"dichotomy_bound"`
		WitnessU         string  `json:"witness_u,omitempty"`
		WitnessV         string  `json:"witness_v,omitempty"`
		EngineMode       string  `json:"engine_mode"`
		RingBytes        int     `json:"ring_bytes"`
		CarryRetainedCap int     `json:"carry_retained_cap"`
		TableBytes       int     `json:"table_bytes"`
		SparseTableBytes int     `json:"sparse_table_bytes,omitempty"`
		NumClasses       int     `json:"num_classes,omitempty"`
		DenseTableBytes  int     `json:"dense_table_bytes,omitempty"`
		AccelStates      int     `json:"accel_states"`
		AccelSlots       int     `json:"accel_slots"`
		AccelCoverage    float64 `json:"accel_coverage"`
		ParallelReworkX  int     `json:"parallel_rework_x"`
		Recertified      bool    `json:"recertified"`
	}{
		c.GrammarHash, c.DelayK, c.DichotomyBound,
		string(c.WitnessU), string(c.WitnessV),
		c.EngineMode, c.RingBytes, c.CarryRetainedCap, c.TableBytes,
		c.SparseTableBytes, c.NumClasses, c.DenseTableBytes,
		c.AccelStates, c.AccelSlots, c.AccelCoverage(), c.ParallelReworkX,
		c.Recertified,
	})
}
