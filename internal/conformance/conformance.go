// Package conformance is the conformance matrix: one table of tokenizer
// sources and the engine paths each compiles to, checked against
// Definition 1 (internal/reference) — or, for a vocabulary, against the
// merge-loop encoding Vocab.Encode — on every axis a stream can take:
//
//   - Stream: every input at chunkings {1, 7, 4096, whole}; tokens, their
//     texts and Close's rest must equal the oracle's.
//   - Resume: a cursor at every chunk boundary, resumed on the source's
//     engines in turn, the suspending one included.
//   - Scheduler and Serving (serving.go): streams fed through the shard
//     scheduler's Handle.Do, and the daemon's refusal modes over HTTP.
//   - Fuzz: one fuzz body over all of it.
//
// Sources are the bounded catalog grammars, ad-hoc rules (the
// testutil corpus and a 1k-rule keyword grammar), machine files and a
// trained vocabulary; engine paths are the settings fused (the
// default), split, lazy (the split loop over a one-state TeDFA cap) and
// noaccel (core.NewNoAccelWithK). The package is test support: only _test
// files import it.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/machinefile"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// chunkings are the Feed chunk sizes every stream row runs (0 = the
// whole input in one chunk).
var chunkings = []int{1, 7, 4096, 0}

// Source is one source of the matrix: its rules (or vocabulary), the
// inputs its rows feed, and its engines, built on first use.
type Source struct {
	Name string
	Kind string // "rules", "vocab", "catalog" or "machine"

	rules    []string
	minimize bool
	m        *tokdfa.Machine // Definition 1's DFA (grammar sources)
	inputs   [][]byte
	resume   []byte // the resume rows' input: the sample cut at a token boundary, if any

	once    sync.Once
	engines []*Engine
	vocab   *streamtok.Vocab // the oracle's encoder (vocabulary source)
	machine []byte           // the SaveCompiled file (machine sources)
	err     error
}

// Engine is one engine path of a source: a tokenizer built under one of
// the suite's engine settings.
type Engine struct {
	Setting string // fused, split, lazy or noaccel
	Mode    string // EngineMode(); noaccel adds " noaccel"

	open    func() stream
	release func(stream)
	resume  func(cursor []byte) (stream, error)
}

// stream is what a row drives: the public Streamer, or a core Streamer
// wrapped to checkpoint into the same cursor format.
type stream interface {
	Feed(chunk []byte, emit core.EmitFunc)
	Close(emit core.EmitFunc) int
	Stopped() bool
	Checkpoint() ([]byte, error)
}

var settings = []struct {
	name string
	opts streamtok.Options
}{
	{"fused", streamtok.Options{}},
	{"split", streamtok.Options{MaxFusedTableBytes: -1}},
	// A grammar that packs never builds a TeDFA, so lazy needs the split
	// loop too.
	{"lazy", streamtok.Options{MaxTeDFAStates: 1, MaxFusedTableBytes: -1}},
}

var (
	sourcesOnce sync.Once
	sources     []*Source
)

// Sources returns the matrix's sources in a fixed order: the ad-hoc
// rule grammars (testutil.Corpus's bounded grammars unminimized, and
// the pretokenizer also minimized, which packs), the vocabulary, the
// bounded catalog grammars, two machine files, and big-1k, the 1k-rule
// keyword grammar of the big-grammar benchmark. New sources go last:
// the committed FuzzConformance seeds pick sources by index.
func Sources() []*Source {
	sourcesOnce.Do(func() {
		rng := rand.New(rand.NewSource(29))
		for _, c := range testutil.Corpus() {
			m := c.Compile(false)
			if !analysis.Analyze(m).Bounded() {
				continue
			}
			var sample []byte
			if c.Name == "pretok" {
				sample = workload.Prompts(29, 2<<10)
			}
			inputs := grammarInputs(rng, sample, c.Alphabet, 10, 160)
			resume := resumeCut(m, sample)
			sources = append(sources, &Source{Name: c.Name, Kind: "rules", rules: c.Rules, m: m, inputs: inputs, resume: resume})
			if c.Name == "pretok" {
				sources = append(sources, &Source{Name: "pretok-min", Kind: "rules", rules: c.Rules, minimize: true, m: c.Compile(true), inputs: inputs, resume: resume})
			}
		}
		sources = append(sources, &Source{Name: "vocab", Kind: "vocab", inputs: vocabInputs()})
		for _, spec := range grammars.All() {
			m := spec.Machine()
			if !analysis.Analyze(m).Bounded() {
				continue
			}
			sample, _ := workload.Generate(spec.Name, 29, 2<<10)
			if spec.Name == "sql-inserts" {
				sample = workload.SQLInserts(29, 2<<10)
			}
			inputs := grammarInputs(rng, sample, []byte("abc019 \t\n,:\"{}<>/=.-_"), 6, 200)
			sources = append(sources, &Source{Name: spec.Name, Kind: "catalog", rules: spec.Rules, minimize: true, m: m, inputs: inputs, resume: resumeCut(m, sample)})
		}
		for _, c := range sources {
			if c.Name == "csv" || c.Name == "json" {
				sources = append(sources, &Source{Name: c.Name + ".mach", Kind: "machine", rules: c.rules, minimize: true, m: c.m, inputs: c.inputs, resume: c.resume})
			}
		}
		rules, err := workload.BigGrammarRules(1000)
		if err != nil {
			panic(err)
		}
		sample, err := workload.BigGrammarInput(29, 2<<10, 1000)
		if err != nil {
			panic(err)
		}
		// Newlines widened into separator runs, which the accel states skip.
		sample = bytes.ReplaceAll(sample, []byte("\n"), []byte(" \n\n  \n "))
		m := tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true})
		inputs := grammarInputs(rng, sample, []byte("abhyz \nq"), 6, 200)
		sources = append(sources, &Source{Name: "big-1k", Kind: "rules", rules: rules, minimize: true, m: m, inputs: inputs, resume: resumeCut(m, sample)})
	})
	return sources
}

// Lookup returns the named source.
func Lookup(name string) *Source {
	for _, src := range Sources() {
		if src.Name == name {
			return src
		}
	}
	panic("conformance: no source " + name)
}

// resumeLen bounds the resume rows' input.
const resumeLen = 300

// resumeCut is a grammar source's resume input: its realistic sample
// cut at the last of Definition 1's token boundaries within resumeLen
// bytes, so cursors land inside and between real tokens of the format
// (a single-byte run, which tokenizes furthest, is one token); nil when
// there is no sample or no token ends in time.
func resumeCut(m *tokdfa.Machine, sample []byte) []byte {
	toks, _ := reference.Tokens(m, sample)
	end := 0
	for _, tk := range toks {
		if tk.End > resumeLen {
			break
		}
		end = tk.End
	}
	if end == 0 {
		return nil
	}
	return sample[:end]
}

// grammarInputs is a grammar source's inputs: a realistic sample (if
// any), one 300-byte run of every alphabet byte (the accel states'
// target shape), n random inputs of up to maxLen bytes, one input of
// 19-byte runs of every alphabet byte each ended by a UTF-8 "é" (runs
// that cross an 8-byte word and end at a byte ≥ 0x80), and the empty
// input.
func grammarInputs(rng *rand.Rand, sample, alphabet []byte, n, maxLen int) [][]byte {
	var out [][]byte
	if len(sample) > 0 {
		out = append(out, sample)
	}
	for _, b := range alphabet {
		out = append(out, bytes.Repeat([]byte{b}, 300))
	}
	for i := 0; i < n; i++ {
		out = append(out, testutil.RandomInput(rng, alphabet, rng.Intn(maxLen)))
	}
	var high []byte
	for _, b := range alphabet {
		high = append(append(high, bytes.Repeat([]byte{b}, 19)...), "é"...)
	}
	return append(out, high, nil)
}

// vocabInputs are prompt-shaped text and the byte-level edge cases of
// the BPE frontend: contractions, non-ASCII, invalid UTF-8, whitespace
// runs, pieces the greedy scan gets wrong, the empty input, single bytes.
func vocabInputs() [][]byte {
	return [][]byte{
		workload.Prompts(29, 2<<10),
		[]byte("Hello, world! The quick brown fox jumps over 1234 lazy dogs."),
		[]byte("it's we're they'll I'd you've can't o'clock '"),
		[]byte("café über 日本語 🙂 αλφα привет →"),
		[]byte("x = {\"key\": 42}\n\tif x: return [1, 2.5e3]\n"),
		[]byte("    \t\r\n  spaces   everywhere \n\n"),
		[]byte(" Semistructment intermitment encedment injectment convocness dejectness subcedions"),
		{0xff, 0xfe, 0x80, 0x41, 0xc2},
		{},
		[]byte("a"),
		[]byte("'"),
		bytes.Repeat([]byte("ab"), 300),
		[]byte(" "),
	}
}

var (
	vocabOnce sync.Once
	vocab     *streamtok.Vocab
	vocabErr  error
)

// Vocab is the trained test vocabulary (800 merges over 128 KiB of
// prompt text).
func Vocab() (*streamtok.Vocab, error) {
	vocabOnce.Do(func() {
		vocab, vocabErr = streamtok.TrainVocab(workload.Prompts(21, 1<<17), 800, 0)
	})
	return vocab, vocabErr
}

// Engines returns the source's engine paths: one per setting whose
// engine mode no earlier setting reports, plus split always (where the
// grammar does not pack, the default falls back to the split loop that
// split asks for, and cursors must cross between the two), plus noaccel
// wherever the fused engine has accel states.
func (src *Source) Engines(tb testing.TB) []*Engine {
	tb.Helper()
	src.once.Do(func() { src.err = src.build() })
	if src.err != nil {
		tb.Fatalf("%s: %v", src.Name, src.err)
	}
	return src.engines
}

func (src *Source) build() error {
	var compile func(opts streamtok.Options) (*streamtok.Tokenizer, error)
	switch src.Kind {
	case "vocab":
		v, err := Vocab()
		if err != nil {
			return err
		}
		src.vocab = v
		compile = func(opts streamtok.Options) (*streamtok.Tokenizer, error) { return streamtok.Compile(src.vocab, opts) }
	case "machine":
		var buf bytes.Buffer
		if err := streamtok.SaveCompiled(streamtok.MustParseGrammar(src.rules...), &buf); err != nil {
			return err
		}
		src.machine = buf.Bytes()
		compile = func(opts streamtok.Options) (*streamtok.Tokenizer, error) {
			tok, _, err := streamtok.LoadCompiledWithOptions(bytes.NewReader(src.machine), opts)
			return tok, err
		}
	default:
		g := streamtok.MustParseGrammar(src.rules...)
		compile = func(opts streamtok.Options) (*streamtok.Tokenizer, error) {
			opts.Minimize = src.minimize
			return streamtok.Compile(g, opts)
		}
	}
	seen := map[string]bool{}
	var fused *streamtok.Tokenizer
	for _, st := range settings {
		tok, err := compile(st.opts)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		if fused == nil {
			fused = tok
		}
		if mode := tok.Engine().Mode; !seen[mode] || st.name == "split" {
			seen[mode] = true
			src.engines = append(src.engines, publicEngine(st.name, tok))
		}
	}
	if src.m != nil && fused.Engine().AccelStates > 0 {
		ct, err := core.NewNoAccelWithK(src.m, fused.K(), tepath.Limits{})
		if err != nil {
			return fmt.Errorf("noaccel: %w", err)
		}
		src.engines = append(src.engines, coreEngine("noaccel", ct, fused.Certificate().GrammarHash))
	}
	return nil
}

func publicEngine(setting string, tok *streamtok.Tokenizer) *Engine {
	return &Engine{
		Setting: setting,
		Mode:    tok.Engine().Mode,
		open:    func() stream { return tok.AcquireStreamer() },
		release: func(s stream) { tok.ReleaseStreamer(s.(*streamtok.Streamer)) },
		resume: func(cursor []byte) (stream, error) {
			s, err := streamtok.Resume(tok, cursor)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	}
}

// coreStream checkpoints a core Streamer into the public cursor format,
// so its cursors resume on the source's public engines and theirs on it.
type coreStream struct {
	*core.Streamer
	hash, mode string
}

func (s *coreStream) Checkpoint() ([]byte, error) {
	cs, err := s.CheckpointState()
	if err != nil {
		return nil, err
	}
	return machinefile.EncodeCursor(&machinefile.Cursor{
		GrammarHash: s.hash, EngineMode: s.mode,
		Boundary: int64(cs.Boundary), QA: int64(cs.QA), Pending: cs.Pending, Counters: cs.Counters,
	})
}

// coreEngine resumes cursors on a core tokenizer the way
// streamtok.Resume does on a public one: the recorded DFA state is
// enforced only when the cursor was taken under the same mode.
func coreEngine(setting string, ct *core.Tokenizer, hash string) *Engine {
	mode := ct.EngineMode()
	return &Engine{
		Setting: setting,
		Mode:    mode + " " + setting,
		open:    func() stream { return &coreStream{ct.AcquireStreamer(), hash, mode} },
		release: func(s stream) { ct.ReleaseStreamer(s.(*coreStream).Streamer) },
		resume: func(cursor []byte) (stream, error) {
			cur, err := machinefile.DecodeCursor(cursor)
			if err != nil {
				return nil, err
			}
			if cur.GrammarHash != hash {
				return nil, errors.New("cursor taken under another grammar")
			}
			s := ct.AcquireStreamer()
			if err := s.Restore(core.CheckpointState{
				Boundary: int(cur.Boundary), Pending: cur.Pending, QA: int(cur.QA),
				CheckQA: cur.EngineMode == mode, Counters: cur.Counters,
			}); err != nil {
				ct.ReleaseStreamer(s)
				return nil, err
			}
			return &coreStream{s, hash, mode}, nil
		},
	}
}

// Want returns the oracle's tokenization of input: Definition 1's
// maximal-munch tokens and rest for a grammar, Vocab.Encode's ranks laid
// end to end for a vocabulary (which never stops early).
func (src *Source) Want(input []byte) ([]token.Token, int) {
	if src.m != nil {
		return reference.Tokens(src.m, input)
	}
	var out []token.Token
	pos := 0
	for _, r := range src.vocab.Encode(nil, input) {
		out = append(out, token.Token{Start: pos, End: pos + len(src.vocab.Token(r)), Rule: r})
		pos = out[len(out)-1].End
	}
	return out, len(input)
}

// boundaries returns the end offset of each chunk when input[from:to]
// is fed in chunks cycling through steps (0, or past the end: the rest
// in one chunk).
func boundaries(from, to int, steps ...int) []int {
	var out []int
	for off, i := from, 0; off < to; i++ {
		step := steps[i%len(steps)]
		if step <= 0 || off+step > to {
			step = to - off
		}
		off += step
		out = append(out, off)
	}
	return out
}

// collector gathers a stream's tokens and records the first one whose
// text is not its span of the input.
type collector struct {
	input []byte
	toks  []token.Token
	bad   string
}

func (c *collector) emit(tk token.Token, text []byte) {
	if c.bad == "" && (tk.Start < 0 || tk.Start > tk.End || tk.End > len(c.input) || !bytes.Equal(text, c.input[tk.Start:tk.End])) {
		c.bad = fmt.Sprintf("token %d %+v has text %q", len(c.toks), tk, text)
	}
	c.toks = append(c.toks, tk)
}

// feed pushes input[from:] through s in chunks ending at bounds.
func (c *collector) feed(s stream, from int, bounds []int) {
	for _, end := range bounds {
		if end > from {
			s.Feed(c.input[from:end], c.emit)
			from = end
		}
	}
}

// mismatch describes how the collected tokens and rest differ from
// want/wantRest, "" when they agree.
func (c *collector) mismatch(want []token.Token, rest, wantRest int) string {
	if c.bad != "" {
		return c.bad
	}
	for i := 0; i < len(c.toks) && i < len(want); i++ {
		if c.toks[i] != want[i] {
			return fmt.Sprintf("token %d = %+v, want %+v", i, c.toks[i], want[i])
		}
	}
	if len(c.toks) != len(want) {
		return fmt.Sprintf("%d tokens, want %d", len(c.toks), len(want))
	}
	if rest != wantRest {
		return fmt.Sprintf("rest %d, want %d", rest, wantRest)
	}
	return ""
}

func clip(b []byte) []byte { return b[:min(len(b), 80)] }

// Stream runs the stream rows of src — every engine path, every input,
// every chunking — and reports each engine's mode to note once they pass.
func Stream(t *testing.T, src *Source, note func(mode string)) {
	engines := src.Engines(t)
	for _, in := range src.inputs {
		want, wantRest := src.Want(in)
		for _, e := range engines {
			for _, chunk := range chunkings {
				c := &collector{input: in}
				s := e.open()
				c.feed(s, 0, boundaries(0, len(in), chunk))
				rest := s.Close(c.emit)
				e.release(s)
				if msg := c.mismatch(want, rest, wantRest); msg != "" {
					t.Fatalf("%s [%s %s, chunk %d] on %q: %s", src.Name, e.Setting, e.Mode, chunk, clip(in), msg)
				}
			}
		}
	}
	for _, e := range engines {
		note(e.Mode)
	}
}

// suspendAndResume feeds in through a stream of e in chunks ending at
// bounds, taking a cursor before each chunk and after the last wherever
// cut allows; the live pass must still match the oracle's want and
// wantRest for in (checkpointing does not perturb the stream). Cursor i
// then resumes on onto[i%len(onto)] and is fed the remaining chunks: it
// must emit exactly the oracle's tokens the suspended stream had not,
// with the same rest. It returns the cursors.
func suspendAndResume(t *testing.T, e *Engine, onto []*Engine, in []byte, want []token.Token, wantRest int, bounds []int, cut func(at int) bool) [][]byte {
	t.Helper()
	type mark struct{ at, emitted int }
	var marks []mark
	var cursors [][]byte
	c := &collector{input: in}
	s := e.open()
	for i, at := range append([]int{0}, bounds...) { // each chunk's start, then the end
		if s.Stopped() {
			break
		}
		if cut(at) {
			cur, err := s.Checkpoint()
			if err != nil {
				t.Fatalf("%s: checkpoint at %d: %v", e.Mode, at, err)
			}
			marks, cursors = append(marks, mark{at, len(c.toks)}), append(cursors, cur)
		}
		if i < len(bounds) {
			c.feed(s, at, bounds[i:i+1])
		}
	}
	rest := s.Close(c.emit)
	e.release(s)
	if msg := c.mismatch(want, rest, wantRest); msg != "" {
		t.Fatalf("%s: checkpointed pass on %q: %s", e.Mode, clip(in), msg)
	}
	for i, m := range marks {
		o := onto[i%len(onto)]
		r, err := o.resume(cursors[i])
		if err != nil {
			t.Fatalf("%s -> %s: resume at %d of %q: %v", e.Mode, o.Mode, m.at, clip(in), err)
		}
		c := &collector{input: in}
		c.feed(r, m.at, bounds)
		rest := r.Close(c.emit)
		o.release(r)
		if msg := c.mismatch(want[m.emitted:], rest, wantRest); msg != "" {
			t.Fatalf("%s -> %s: cursor at %d of %q: %s", e.Mode, o.Mode, m.at, clip(in), msg)
		}
	}
	return cursors
}

// Resume runs the resume rows of one engine path of src on the
// source's resume input (up to resumeLen bytes, see resumeInput): at
// every chunking a cursor at every chunk boundary, resumed on the
// source's engines in turn starting with e, so every ordered pair of
// engines meets at some boundary. A cursor with a tampered DFA state
// must be refused by e.
func Resume(t *testing.T, src *Source, e *Engine) {
	engines := src.Engines(t)
	in := src.resumeInput()
	want, wantRest := src.Want(in)
	var onto []*Engine
	for i, o := range engines {
		if o == e {
			onto = append(append(onto, engines[i:]...), engines[:i]...)
		}
	}
	all := func(int) bool { return true }
	for _, chunk := range chunkings {
		cursors := suspendAndResume(t, e, onto, in, want, wantRest, boundaries(0, len(in), chunk), all)
		if chunk != 7 || len(cursors) < 2 {
			continue
		}
		cur, err := machinefile.DecodeCursor(cursors[len(cursors)/2])
		if err != nil {
			t.Fatal(err)
		}
		cur.QA++
		blob, err := machinefile.EncodeCursor(cur)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := e.resume(blob); err == nil {
			e.release(r)
			t.Fatalf("%s: cursor at %d with a tampered DFA state resumed", e.Mode, cur.Boundary)
		}
	}
}

// resumeInput is the source's resume input if it has one, else its
// input that tokenizes furthest, cut to resumeLen bytes.
func (src *Source) resumeInput() []byte {
	if src.resume != nil {
		return src.resume
	}
	var best []byte
	bestRest := -1
	for _, in := range src.inputs {
		in = in[:min(len(in), resumeLen)]
		if _, rest := src.Want(in); rest > bestRest {
			best, bestRest = in, rest
		}
	}
	return best
}

// required are the engine paths the code can select.
var required = []string{
	"fused-k0", "fused-k1", "fused-k2", "fused-k3",
	"split-k0", "split-k1", "split-general", "split-general-lazy",
	"bpe+fused-k2", "bpe+split-general",
	"fused-k1 noaccel", "fused-k2 noaccel",
}

// Coverage fails unless exercised (the modes stream rows ran) holds
// every engine path the code can select and every mode a catalog
// grammar, corpus grammar or the vocabulary reports under the suite's
// engine settings.
func Coverage(t *testing.T, exercised map[string]bool) {
	var missing []string
	for _, mode := range required {
		if !exercised[mode] {
			missing = append(missing, mode)
		}
	}
	for _, src := range Sources() {
		for _, e := range src.Engines(t) {
			if !exercised[e.Mode] {
				missing = append(missing, fmt.Sprintf("%s (%s %s)", e.Mode, src.Name, e.Setting))
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("engine modes no stream row ran: %v", missing)
	}
}

// Fuzz is the one fuzz body: pick chooses a source, input (cut to 64
// KiB) is fed to every engine path in chunks alternating c1 and c2
// bytes, and a cursor taken at byte cut%(len+1) resumes on the same
// engine and on the next one.
func Fuzz(t *testing.T, pick int, c1, c2, cut uint8, input []byte) {
	src := Sources()[index(pick, len(sources))]
	input = input[:min(len(input), 1<<16)]
	engines := src.Engines(t)
	steps := []int{max(int(c1), 1), max(int(c2), 1)}
	at := int(cut) % (len(input) + 1)
	bounds := append(boundaries(0, at, steps...), boundaries(at, len(input), steps...)...)
	want, wantRest := src.Want(input)
	for i, e := range engines {
		for _, o := range []*Engine{e, engines[(i+1)%len(engines)]} {
			suspendAndResume(t, e, []*Engine{o}, input, want, wantRest, bounds, func(a int) bool { return a == at })
		}
	}
}

// RulePick maps a pick over the corpus's ad-hoc rule sources alone (the
// order internal/core's fuzz seeds were recorded in) to a Fuzz pick.
func RulePick(pick int) int {
	n := 0
	for _, src := range Sources() {
		if src.Kind != "rules" {
			break // the corpus rule sources come first; big-1k is not one
		}
		n++
	}
	return index(pick, n)
}

// index maps a fuzzed pick to [0, n) by its absolute value.
func index(pick, n int) int {
	u := uint(pick)
	if pick < 0 {
		u = -u
	}
	return int(u % uint(n))
}

// FuzzPick returns the Fuzz pick that selects the named source.
func FuzzPick(name string) int {
	for i, src := range Sources() {
		if src.Name == name {
			return i
		}
	}
	panic("conformance: no source " + name)
}
