// Package testutil provides shared fixtures for differential testing: a
// corpus of named grammars with known max-TND, random grammar generation,
// and random input generation. All randomness is seeded for
// reproducibility.
package testutil

import (
	"math/rand"

	"streamtok/internal/regex"
	"streamtok/internal/tokdfa"
)

// GrammarCase is a named tokenization grammar with its known max-TND
// (KnownTND < 0 means unbounded, KnownTND == Unknown means unchecked).
type GrammarCase struct {
	Name     string
	Rules    []string
	KnownTND int
	// Alphabet lists bytes that exercise the grammar (for input
	// generation), including bytes that do not match any rule.
	Alphabet []byte
}

// Unbounded marks a grammar with infinite max-TND.
const Unbounded = -1

// Unknown marks a grammar whose max-TND the corpus does not pin down.
const Unknown = -2

// Corpus returns the grammar cases used across engine tests.
func Corpus() []GrammarCase {
	return []GrammarCase{
		{"single-char", []string{`[0-9]`, `[ ]`}, 0, []byte("07 x")},
		{"ints-spaces", []string{`[0-9]+`, `[ ]+`}, 1, []byte("019  x")},
		{"floats", []string{`[0-9]+(\.[0-9]+)?`, `[ .]`}, 2, []byte("3.14 .")},
		{"scientific", []string{`[0-9]+([eE][+-]?[0-9]+)?`, `[ ]+`}, 3, []byte("12eE+- 9")},
		{"trailing-zero", []string{`[0-9]*0`, `[ ]+`}, Unbounded, []byte("010 9")},
		{"abc-star", []string{`a`, `a*b`, `[ab]*[^ab]`}, Unbounded, []byte("aabbc")},
		{"lemma6", []string{`a`, `b`, `(a|b)*c`}, Unbounded, []byte("abc")},
		{"rk4", []string{`a{0,4}b`, `a`}, 4, []byte("aaab")},
		{"keywords", []string{`if`, `in`, `int`, `[a-z]+`, `[ ]+`}, 1, []byte("intifz ")},
		{"csv-stream", []string{`"([^"]|"")*"?`, `[^,"\n]+`, `,`, `\n`}, 1, []byte(`a,"b""` + "\n")},
		{"comments", []string{`/\*([^*]|\*[^/])*\*/`, `[a-z]+`, `[ \n]+`}, Unknown, []byte("/*ab*/ x\n")},
		{"identifiers", []string{`[a-zA-Z_][a-zA-Z0-9_]*`, `[0-9]+`, `[ \t\n]+`, `[-+*/=<>!]+`}, 1, []byte("a1_ +=9\t")},
		{"empty-quotes", []string{`""`, `"a*"`, `[ ]`}, Unknown, []byte(`"a" `)},
		{"nullable-rule", []string{`a*`, `b`}, Unbounded, []byte("aab")},
		{"overlap-priority", []string{`ab`, `a`, `b+`, `[ ]`}, Unknown, []byte("abba ")},
		{"dot-star-guard", []string{`x[^y]*y`, `[a-z]+`, `[ ]`}, Unknown, []byte("xzy a ")},
		{"byte-extremes", []string{`\x00+`, `[\xf0-\xff]+`, `a+`}, 1, []byte{0, 0xf0, 0xff, 'a', 'b'}},
		{"full-dot", []string{`.`, `ab`}, 1, []byte("abc\x00\xff")},
		{"nested-bounds", []string{`(ab){1,3}c?`, `[ab]`, `[ ]`}, Unknown, []byte("ababab c")},
		{"rk12-lazy", []string{`a{0,12}b`, `a`}, 12, []byte("aab")},
		{"keyword-ladder", []string{`i`, `if`, `iff`, `[a-z]+`, `[ ]+`}, Unknown, []byte("iff i zz ")},
		{"crlf-lines", []string{`[^\r\n]+`, `\r\n|\n`}, Unknown, []byte("ab\r\ncd\n\r")},
		{"pretok", PretokRules(), 2, []byte("a Z9's\t\n.!'\xc3\xa9\x80\xff")},
	}
}

// PretokRules is a copy of the BPE pretokenizer grammar, bpe.PretokRules
// (bpe's tests import this package, so it cannot import bpe); a bpe test
// pins the two equal. Its K = 2 product is small enough for the packed
// single-table engine.
func PretokRules() []string {
	return []string{
		`'(s|t|re|ve|m|ll|d)`,
		`( )?[A-Za-z]+`,
		`( )?[0-9]+`,
		`( )?([\xc2-\xf4][\x80-\xbf]+)+`,
		`( )?[^ \t\r\nA-Za-z0-9\x80-\xff']+`,
		`'`,
		`[ \t\r\n]+`,
		`[\x80-\xff]`,
	}
}

// Compile compiles a case, panicking on error (fixtures are static).
func (c GrammarCase) Compile(minimize bool) *tokdfa.Machine {
	g := tokdfa.MustParseGrammar(c.Rules...)
	return tokdfa.MustCompile(g, tokdfa.Options{Minimize: minimize})
}

// RandomGrammar generates a small random grammar over the alphabet
// {a, b, c}: between 1 and 3 rules, each a random regex of bounded depth.
// Roughly a third of generated grammars have unbounded max-TND, which is
// what the differential tests want.
func RandomGrammar(rng *rand.Rand) *tokdfa.Grammar {
	numRules := 1 + rng.Intn(3)
	rules := make([]tokdfa.Rule, numRules)
	for i := range rules {
		rules[i] = tokdfa.Rule{Expr: randomRegex(rng, 3)}
	}
	return &tokdfa.Grammar{Rules: rules}
}

func randomRegex(rng *rand.Rand, depth int) regex.Node {
	if depth == 0 {
		return randomLeaf(rng)
	}
	switch rng.Intn(7) {
	case 0, 1:
		return randomLeaf(rng)
	case 2:
		return regex.Seq(randomRegex(rng, depth-1), randomRegex(rng, depth-1))
	case 3:
		return regex.Or(randomRegex(rng, depth-1), randomRegex(rng, depth-1))
	case 4:
		return regex.Kleene(randomRegex(rng, depth-1))
	case 5:
		return regex.Plus(randomRegex(rng, depth-1))
	default:
		return regex.Opt(randomRegex(rng, depth-1))
	}
}

func randomLeaf(rng *rand.Rand) regex.Node {
	letters := []string{"a", "b", "c", "[ab]", "[bc]", "[abc]"}
	return regex.MustParse(letters[rng.Intn(len(letters))])
}

// RandomInput generates n random bytes drawn from the alphabet.
func RandomInput(rng *rand.Rand, alphabet []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// ChunkSizes are the Feed chunk sizes differential tests exercise to shake
// out block-boundary bugs.
var ChunkSizes = []int{1, 2, 3, 7, 64, 1 << 20}
