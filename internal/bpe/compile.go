package bpe

import (
	"streamtok/internal/regex"
	"streamtok/internal/tokdfa"
)

// Rules renders the vocabulary as its maximal-munch tokenization
// grammar: one literal rule per token, rule id = rank. Its tokenization
// DFA is the vocab trie DFA of the BPE-DFA construction — the greedy
// longest-token scanner whose output the local-validity check certifies
// against true BPE. Compile builds that DFA directly from the token
// list (tokdfa.CompileLiterals); the grammar is the oracle tests
// compile through the Thompson NFA path to check it. Rule names are
// left empty (a 50k-token vocabulary needs no display names; the server
// emits ranks).
func (v *Vocab) Rules() *tokdfa.Grammar {
	g := &tokdfa.Grammar{Rules: make([]tokdfa.Rule, len(v.tokens))}
	for r, tok := range v.tokens {
		g.Rules[r] = tokdfa.Rule{Expr: regex.Lit(string(tok))}
	}
	return g
}

// PretokGrammar returns the pretokenization grammar (PretokRules
// compiled and named). The streaming encoder runs it through the
// bounded-memory engine to split the input into independently
// encodable pieces.
func PretokGrammar() *tokdfa.Grammar {
	return tokdfa.MustParseGrammar(PretokRules()...).Named(PretokRuleNames()...)
}
