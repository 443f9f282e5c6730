package streamtok

import (
	"fmt"
	"io"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/machinefile"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// ErrCertMismatch is wrapped by LoadCompiled when the file half of a
// machine file's resource certificate — grammar hash, delay K with its
// dichotomy bound and witness, class count and dense-equivalent bytes —
// does not verify against the stored machine: the file's claims were
// tampered with or produced by a broken toolchain, and the load is
// refused. The engine half is derived on load, so it never causes this.
var ErrCertMismatch = cert.ErrMismatch

// SaveCompiled compiles g, runs the static analysis, and writes the
// machine (tables, rule names, max-TND) to w in a versioned binary
// format, together with its resource certificate — the statically
// derived cost bounds whose file half a loader verifies before trusting
// the file. A saved machine can be loaded with LoadCompiled without
// paying determinization or analysis again — the deployment path for
// tools that compile grammars ahead of time (see also cmd/lexgen for
// source-level generation). Unbounded grammars are saved without a
// certificate (they have none; loaders reject them for serving).
func SaveCompiled(g *Grammar, w io.Writer) error {
	m, err := tokdfa.Compile(g.g, tokdfa.Options{Minimize: true})
	if err != nil {
		return err
	}
	res := analysis.Analyze(m)
	if !res.Bounded() {
		return machinefile.Encode(w, m, res.MaxTND)
	}
	// Certify against the engine LoadCompiled builds by default; the
	// loader derives the engine half again from whatever it builds.
	inner, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		return err
	}
	c, err := cert.New(m, res, inner)
	if err != nil {
		return err
	}
	return machinefile.EncodeWithCert(w, m, res.MaxTND, c)
}

// LoadCompiled reads a machine written by SaveCompiled and builds a
// ready-to-use Tokenizer. It fails with an error wrapping ErrUnbounded
// when the stored grammar's max-TND is infinite, and with a format error
// on corrupted input — including a certificate whose file half does not
// verify, which wraps ErrCertMismatch. Version 1, 2 and 3 files load;
// a version-1 file carries no certificate, so its tokenizer is
// certified fresh. A version 4 file (the sparse vocab-DFA format,
// which no release wrote) fails in decoding with a format error.
func LoadCompiled(r io.Reader) (*Tokenizer, *Grammar, error) {
	return LoadCompiledWithOptions(r, Options{})
}

// LoadCompiledWithOptions is LoadCompiled with engine options (only the
// engine-selection fields apply: MaxFusedTableBytes and MaxTeDFAStates
// — the machine's tables are already compiled). The stored certificate's
// file half is verified during decode; its engine half (mode, ring,
// table and accel bytes) is then derived from the engine just built, so
// the returned tokenizer always carries bounds that describe the engine
// actually serving. When the stored engine half differed — a file
// written by a build with another engine layout, or options selecting
// a non-default engine — the certificate is marked Recertified instead
// of refused. Files written by this build may in turn be refused by
// older builds, which still match the stored engine half exactly.
func LoadCompiledWithOptions(r io.Reader, opts Options) (*Tokenizer, *Grammar, error) {
	mf, err := machinefile.Decode(r)
	if err != nil {
		return nil, nil, err
	}
	g := &Grammar{g: mf.Machine.Grammar}
	if mf.MaxTND == analysis.Infinite {
		return nil, g, fmt.Errorf("%w (grammar %s)", ErrUnbounded, g.g.String())
	}
	limits := tepath.Limits{MaxDFAStates: opts.MaxTeDFAStates}
	inner, err := core.NewWithKBudget(mf.Machine, mf.MaxTND, limits, opts.MaxFusedTableBytes)
	if err != nil {
		return nil, g, err
	}
	c := mf.Cert
	if c != nil {
		c.Recertified = c.BindEngine(inner)
	} else if c, err = cert.New(mf.Machine, analysis.Analyze(mf.Machine), inner); err != nil {
		// A version-1 file carries no certificate: only the analysis
		// can supply the witness pair.
		return nil, g, err
	}
	return &Tokenizer{
		eng:       inner,
		ruleNames: grammarRuleNames(mf.Machine.Grammar),
		cert:      c,
		an: Analysis{
			MaxTND:  mf.MaxTND,
			Bounded: true,
			NFASize: mf.Machine.NFASize,
			DFASize: mf.Machine.DFA.NumStates(),
		},
	}, g, nil
}
