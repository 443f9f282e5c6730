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

// ErrCertMismatch is wrapped by LoadCompiled when a machine file's
// resource certificate does not verify against the machine or the
// rebuilt engine: the file's cost claims were tampered with or produced
// by a broken toolchain, and the load is refused.
var ErrCertMismatch = cert.ErrMismatch

// SaveCompiled compiles g, runs the static analysis, and writes the
// machine (tables, rule names, max-TND) to w in a versioned binary
// format, together with its resource certificate — the statically
// derived cost bounds a loader verifies before trusting the file. A
// saved machine can be loaded with LoadCompiled without paying
// determinization or analysis again — the deployment path for tools
// that compile grammars ahead of time (see also cmd/lexgen for
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
	// Certify against the engine LoadCompiled will rebuild (the fused
	// default), so the engine-dependent bounds verify exactly on load.
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
// when the stored grammar's max-TND is infinite, with a format error on
// corrupted input, and with an error wrapping ErrCertMismatch when the
// file carries a resource certificate that does not verify against the
// rebuilt engine (the static half is already verified during decode).
// A version-1 file without a certificate still loads; its tokenizer is
// certified fresh.
func LoadCompiled(r io.Reader) (*Tokenizer, *Grammar, error) {
	return LoadCompiledWithOptions(r, Options{})
}

// LoadCompiledWithOptions is LoadCompiled with engine options (only the
// engine-selection fields apply: MaxFusedTableBytes and MaxTeDFAStates
// — the machine's tables are already compiled). A
// certificate from a current-format file verifies against the rebuilt
// engine when the options select the default engine; a non-default
// engine (or a dense-era file, whose byte accounting predates class
// compression) is re-certified instead, so the returned tokenizer
// always carries bounds that describe the engine actually serving.
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
	defaultEngine := opts.MaxFusedTableBytes == 0 && opts.MaxTeDFAStates == 0
	switch {
	case c != nil && mf.Version >= 3 && defaultEngine:
		if err := c.VerifyAgainst(inner); err != nil {
			return nil, g, fmt.Errorf("machinefile certificate refused: %w", err)
		}
	default:
		// No certificate (legacy v1 files), a dense-era certificate whose
		// byte accounting no longer matches any engine this build
		// constructs, or a non-default engine the stored certificate was
		// not derived for: re-run the analysis (cheap next to the compile
		// the file saved us) and certify the engine we just built, so
		// every loaded tokenizer carries verified bounds for budgeted
		// admission. The stored certificate's static half was already
		// verified during decode.
		res := analysis.Analyze(mf.Machine)
		if c, err = cert.New(mf.Machine, res, inner); err != nil {
			return nil, g, err
		}
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
