package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"streamtok"
	"streamtok/internal/bpe"
	"streamtok/internal/workload"
)

// The 8k-merge vocabulary is input, not set-up: it is trained like the
// 8k row of the bpe experiment (workload.Prompts seed 42, 4 MiB, tokens
// of at most 7 bytes), saved as a tiktoken file, and pinned by name. Its
// training time is never part of setup_s. It does not depend on the
// workload seed, so one trained copy serves every run in a checkout.
const (
	vocabName      = "p8k"
	vocabSeed      = 42
	vocabCorpus    = 4 << 20
	vocabMerges    = 8000
	vocabMaxTokLen = 7
)

// catalogSources are the catalog grammars the grammar workloads use.
var catalogSources = []string{"log", "json", "csv", "xml"}

// adhocGrammars are sent as ?rule= lists: small bounded grammars the
// server compiles on first use and then serves from its registry.
var adhocGrammars = [][]string{
	{`[a-z]+`, `[0-9]+`, `[ \n]+`, `[,.;:!?]`},
	{`[A-Za-z_][A-Za-z0-9_]*`, `0x[0-9a-f]+`, `[0-9]+`, `[ \t\n]+`, `[(){};,=+*-]`},
	{`[a-z]+=[0-9]+`, `[a-z]+`, `[ \n]+`},
}

// item is one generated input: a document or request body, the source
// that tokenizes it, and its correct output.
type item struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Source string `json:"source"` // catalog name, "adhocN", or vocabName
	Path   string `json:"path"`
	Size   int    `json:"size"`
	Want   expect `json:"want"`
	Wire   wire   `json:"wire"`
	data   []byte
}

// inputs is everything a workload run needs besides the program: the
// items on disk, the vocabulary file, and the sources' rule names.
type inputs struct {
	Dir       string  `json:"dir"`
	VocabPath string  `json:"vocab_path,omitempty"`
	Items     []*item `json:"items"`

	names   map[string][][]byte           // JSON-quoted rule names per grammar source
	gram    map[string]*streamtok.Grammar // grammar per grammar source
	vocab   *streamtok.Vocab
	vocabIn *bpe.Vocab // the same vocabulary, for the layer ladder
}

func (in *inputs) add(kind, source string, data []byte) *item {
	it := &item{ID: len(in.Items), Kind: kind, Source: source, Size: len(data), data: data}
	in.Items = append(in.Items, it)
	return it
}

func (in *inputs) ofKind(kind string) []*item {
	var out []*item
	for _, it := range in.Items {
		if it.Kind == kind {
			out = append(out, it)
		}
	}
	return out
}

// adhocQuery renders adhoc grammar i as ?rule= parameters.
func adhocQuery(i int) string {
	var sb strings.Builder
	for j, r := range adhocGrammars[i] {
		if j > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString("rule=")
		sb.WriteString(url.QueryEscape(r))
	}
	return sb.String()
}

func isAdhoc(source string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(source, "adhoc%d", &i); err != nil || i < 0 || i >= len(adhocGrammars) {
		return 0, false
	}
	return i, true
}

// generate builds the named workload's inputs from seed and writes them
// under out/inputs/<workload>-s<seed>/. The same seed always yields
// byte-identical inputs. With ladderPrompts, serve-grammars also gets a
// few prompts of its own seed for the ladder's bpe rungs; they are never
// sent by the load generator.
func generate(out, wl string, seed int64, ladderPrompts bool) (*inputs, error) {
	in := &inputs{
		Dir:   filepath.Join(out, "inputs", fmt.Sprintf("%s-s%d", wl, seed)),
		names: map[string][][]byte{},
		gram:  map[string]*streamtok.Grammar{},
	}
	rng := rand.New(rand.NewSource(seed))
	sub := func() int64 { return rng.Int63() }
	switch wl {
	case "file-docs":
		for _, src := range catalogSources {
			doc, err := workload.Generate(src, sub(), 2<<20)
			if err != nil {
				return nil, err
			}
			in.add("doc", src, doc)
		}
		// 5 MiB: streams of 4 MiB and more overflow the piece cache.
		in.add("doc", vocabName, workload.Prompts(sub(), 5<<20))
	case "serve-grammars":
		for i := 0; i < 3; i++ {
			for _, src := range []string{"log", "json"} {
				doc, err := workload.Generate(src, sub(), 256<<10)
				if err != nil {
					return nil, err
				}
				in.add("body", src, doc)
			}
		}
		for _, n := range []int{1 << 10, 8 << 10, 64 << 10} {
			in.add("long", "csv", workload.CSVWithTokenLen(sub(), 256<<10, n))
			in.add("long", "json", workload.JSONWithTokenLen(sub(), 256<<10, n))
		}
		for i := 0; i < 16; i++ {
			in.add("small", "json", workload.JSON(sub(), 2<<10))
		}
		for i := range adhocGrammars {
			for j := 0; j < 2; j++ {
				in.add("adhoc", fmt.Sprintf("adhoc%d", i), adhocBody(i, sub(), 32<<10))
			}
		}
		if ladderPrompts {
			prng := rand.New(rand.NewSource(seed ^ 0x1add))
			for i := 0; i < 4; i++ {
				in.add("ladder-prompt", vocabName, promptBody(prng.Int63(), 64<<10))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	if err := os.MkdirAll(in.Dir, 0o755); err != nil {
		return nil, err
	}
	for _, it := range in.Items {
		it.Path = filepath.Join(in.Dir, fmt.Sprintf("%03d-%s-%s.txt", it.ID, it.Kind, it.Source))
		if err := os.WriteFile(it.Path, it.data, 0o644); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// promptBody cuts n bytes of prompt text.
func promptBody(seed int64, n int) []byte {
	return workload.Prompts(seed, n)[:n]
}

var adhocWords = []string{"alpha", "beta", "gamma", "delta", "stream", "token", "bound", "lookahead", "carry", "ring", "state", "cursor"}

// adhocBody generates about n bytes that adhoc grammar i tokenizes fully.
func adhocBody(i int, seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	w := func() string { return adhocWords[rng.Intn(len(adhocWords))] }
	var b bytes.Buffer
	for b.Len() < n {
		switch i {
		case 0:
			fmt.Fprintf(&b, "%s %d %s%s ", w(), rng.Intn(100000), w(), ",.;:!?"[rng.Intn(6):][:1])
		case 1:
			fmt.Fprintf(&b, "%s_%d = 0x%x + %s * %d;\n", w(), rng.Intn(100), rng.Intn(1<<20), w(), rng.Intn(1000))
		case 2:
			fmt.Fprintf(&b, "%s=%d %s ", w(), rng.Intn(100000), w())
		}
		if rng.Intn(8) == 0 {
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// ensureVocab returns the path of the trained 8k vocabulary, training
// and saving it on first use.
func ensureVocab(out string) (string, error) {
	path := filepath.Join(out, "vocab", vocabName+".tiktoken")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	v, err := streamtok.TrainVocab(workload.Prompts(vocabSeed, vocabCorpus), vocabMerges, vocabMaxTokLen)
	if err != nil {
		return "", fmt.Errorf("training vocabulary: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, v.WriteTiktoken(), 0o644); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// prepare loads the vocabulary when the workload needs it and computes
// each item's correct output: grammars through in-process TokenizeBytes,
// prompts through Vocab.Encode (the reference BPE encoder), with the
// streaming vocab tokenizer cross-checked against it. A seeded sample is
// also checked against ReferenceTokens, the Definition 1 oracle. Any
// disagreement is an error: the program is wrong before timing starts.
func (in *inputs) prepare(out string, seed int64, needVocab bool) error {
	if needVocab {
		path, err := ensureVocab(out)
		if err != nil {
			return err
		}
		in.VocabPath = path
		if in.vocab, err = streamtok.LoadVocab(path); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if in.vocabIn, err = bpe.ParseTiktoken(data); err != nil {
			return err
		}
	}
	toks := map[string]*streamtok.Tokenizer{}
	tokenizer := func(src string) (*streamtok.Tokenizer, error) {
		if t, ok := toks[src]; ok {
			return t, nil
		}
		var s streamtok.Source
		if src == vocabName {
			s = in.vocab
		} else {
			g, err := in.grammar(src)
			if err != nil {
				return nil, err
			}
			s = g
		}
		t, err := streamtok.Compile(s, streamtok.Options{Minimize: true})
		toks[src] = t
		return t, err
	}
	for _, it := range in.Items {
		t, err := tokenizer(it.Source)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", it.Source, err)
		}
		got, rest := t.TokenizeBytes(it.data)
		d := newDigest()
		recs := make([]tokenRec, len(got))
		for i, tk := range got {
			d.add(tk.Start, tk.End, tk.Rule)
			recs[i] = tokenRec{tk.Start, tk.End, tk.Rule}
		}
		it.Want = expect{Digest: d.h, Tokens: d.n, Rest: rest}
		it.Wire = renderWire(recs, it.data, in.names[it.Source], withText(it.Source))
		if it.Source == vocabName {
			ref := encodeExpect(in.vocab, it.data)
			if msg := d.verify(ref, rest); msg != "" {
				return fmt.Errorf("item %d: streaming BPE disagrees with Vocab.Encode: %s", it.ID, msg)
			}
		}
		if rest != len(it.data) {
			return fmt.Errorf("item %d (%s) does not tokenize fully: rest %d of %d", it.ID, it.Source, rest, len(it.data))
		}
	}
	return in.referenceSample(seed)
}

// grammar returns the grammar of a catalog or adhoc source.
func (in *inputs) grammar(src string) (*streamtok.Grammar, error) {
	if g, ok := in.gram[src]; ok {
		return g, nil
	}
	var g *streamtok.Grammar
	var err error
	if i, ok := isAdhoc(src); ok {
		g, err = streamtok.ParseGrammar(adhocGrammars[i]...)
	} else {
		g, err = streamtok.CatalogGrammar(src)
	}
	if err != nil {
		return nil, err
	}
	names := make([][]byte, g.NumRules())
	for i := range names {
		names[i] = appendJSONString(nil, []byte(g.RuleName(i)))
	}
	in.gram[src], in.names[src] = g, names
	return g, nil
}

// encodeExpect is the expectation for a prompt according to Vocab.Encode:
// ranks laid end to end from offset 0.
func encodeExpect(v *streamtok.Vocab, text []byte) expect {
	d := newDigest()
	off := 0
	for _, r := range v.Encode(nil, text) {
		n := len(v.Token(r))
		d.add(off, off+n, r)
		off += n
	}
	return expect{Digest: d.h, Tokens: d.n, Rest: off}
}

// referenceSample checks the tokenizer against Definition 1 on a seeded
// sample of prefixes (the oracle is quadratic, so prefixes are short).
// Prompts are checked through the pretokenizer grammar, which is the
// part of the vocab pipeline Definition 1 speaks about.
func (in *inputs) referenceSample(seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k := 0; k < 3; k++ {
		it := in.Items[rng.Intn(len(in.Items))]
		var g *streamtok.Grammar
		var err error
		if it.Source == vocabName {
			g, err = streamtok.ParseGrammar(bpe.PretokRules()...)
		} else {
			g, err = in.grammar(it.Source)
		}
		if err != nil {
			return err
		}
		t, err := streamtok.Compile(g, streamtok.Options{Minimize: true})
		if err != nil {
			return err
		}
		n := min(len(it.data), 1536)
		off := rng.Intn(len(it.data) - n + 1)
		prefix := it.data[off : off+n]
		ref, refRest, err := streamtok.ReferenceTokens(g, prefix)
		if err != nil {
			return err
		}
		got, rest := t.TokenizeBytes(prefix)
		if rest != refRest || len(got) != len(ref) {
			return fmt.Errorf("item %d: %d tokens (rest %d) vs Definition 1's %d (rest %d)", it.ID, len(got), rest, len(ref), refRest)
		}
		for i := range got {
			if got[i] != ref[i] {
				return fmt.Errorf("item %d: token %d is %v, Definition 1 says %v", it.ID, i, got[i], ref[i])
			}
		}
	}
	return nil
}
