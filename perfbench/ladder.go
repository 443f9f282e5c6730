package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/bpe"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/parallel"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// The layer ladder runs each input through successively more of the
// stack, each rung a call into one module's public functions:
//
//	tokdfa.step      Machine.StepByte walk, no tokenization
//	core.feed        core Streamer.Feed with a no-op emit
//	core.emit        Feed with an emit that consumes every token
//	core.feedbatch   FeedBatch with a consuming sink (beside core.emit)
//	bpe.stream       vocab only: pretokenizer plus piece encoding
//	streamtok.tokenize  the public Tokenize reader driver
//	parallel.do      the same stream fed through Scheduler Do hops
//	server.bin       loopback /tokenize, binary framing
//	server.ndjson    loopback /tokenize, NDJSON framing
//
// For a vocabulary, tokdfa and core run the pretokenizer's machine, so
// core.feed is the pretokenizer alone (bpe.pretok). Each rung runs the
// whole stack up to its layer, so a layer's self time is its rung's time
// minus the time of the rung below it in the chain.
var (
	grammarChain = []string{"tokdfa.step", "core.feed", "core.emit", "streamtok.tokenize", "parallel.do", "server.bin", "server.ndjson"}
	vocabChain   = []string{"tokdfa.step", "core.feed", "bpe.stream", "streamtok.tokenize", "parallel.do", "server.bin", "server.ndjson"}
)

// engines are one source's objects at every layer.
type engines struct {
	m    *tokdfa.Machine // the grammar's machine, or the pretokenizer's
	core *core.Tokenizer
	pub  *streamtok.Tokenizer
	bt   *bpe.Tokenizer // vocabularies only
	// compile is what the public constructor took: LoadVocab plus
	// Compile for a vocabulary, Compile for a grammar.
	compile time.Duration
}

func buildEngines(in *inputs, src string) (*engines, error) {
	e := &engines{}
	var err error
	if src == vocabName {
		if e.bt, err = bpe.Compile(in.vocabIn, bpe.Options{}); err != nil {
			return nil, err
		}
		e.m, e.core = e.bt.PretokMachine(), e.bt.PretokEngine()
		t0 := time.Now()
		v, err := streamtok.LoadVocab(in.VocabPath)
		if err != nil {
			return nil, err
		}
		e.pub, err = streamtok.Compile(v, streamtok.Options{Minimize: true})
		e.compile = time.Since(t0)
		return e, err
	}
	var g *tokdfa.Grammar
	if i, ok := isAdhoc(src); ok {
		if g, err = tokdfa.ParseGrammar(adhocGrammars[i]...); err != nil {
			return nil, err
		}
	} else {
		spec, err := grammars.Lookup(src)
		if err != nil {
			return nil, err
		}
		g = spec.Grammar()
	}
	if e.m, err = tokdfa.Compile(g, tokdfa.Options{Minimize: true}); err != nil {
		return nil, err
	}
	res := analysis.Analyze(e.m)
	if !res.Bounded() {
		return nil, fmt.Errorf("%s: unbounded grammar", src)
	}
	if e.core, err = core.NewWithKBudget(e.m, res.MaxTND, tepath.Limits{}, 0); err != nil {
		return nil, err
	}
	pg, err := in.grammar(src)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	e.pub, err = streamtok.Compile(pg, streamtok.Options{Minimize: true})
	e.compile = time.Since(t0)
	return e, err
}

// rungTimes are one input's fastest time per rung, and the counts the
// per-token and per-piece ratios divide by.
type rungTimes struct {
	item   *item
	times  map[string]time.Duration
	pieces int // core-level tokens: pretokenizer pieces for a vocabulary
}

// chainSelf returns each layer's self time on this input, up to and
// including top.
func (rt *rungTimes) chainSelf(top string) map[string]time.Duration {
	chain := grammarChain
	if rt.item.Source == vocabName {
		chain = vocabChain
	}
	out := map[string]time.Duration{}
	var below time.Duration
	for _, name := range chain {
		out[name] = rt.times[name] - below
		below = rt.times[name]
		if name == top {
			break
		}
	}
	return out
}

type ladder struct {
	in       *inputs
	d        *daemon
	hc       *http.Client
	fromDisk bool
	reps     int
	tr       *tracer
	sched    *parallel.Scheduler
	engines  map[string]*engines
	failures []string
	checks   int
	buf      []byte // read buffer of the parallel.do rung
	resp     []byte // response buffer of the loopback rungs
}

func noEmit(token.Token, []byte) {}

const chunkSize = 64 << 10

// run climbs the ladder on one input reps times and keeps each rung's
// fastest time.
func (l *ladder) run(it *item) (*rungTimes, error) {
	e, ok := l.engines[it.Source]
	if !ok {
		var err error
		if e, err = buildEngines(l.in, it.Source); err != nil {
			return nil, err
		}
		l.engines[it.Source] = e
	}
	rt := &rungTimes{item: it, times: map[string]time.Duration{}}
	data := it.data
	rungs := []struct {
		name string
		fn   func() error
	}{
		{"tokdfa.step", func() error {
			m, q0 := e.m, e.m.DFA.Start
			q := q0
			for _, b := range data {
				q = m.StepByte(q, b)
				if m.IsDead(q) {
					q = m.StepByte(q0, b)
				}
			}
			stepSink = q
			return nil
		}},
		{"core.feed", func() error {
			s := e.core.AcquireStreamer()
			for off := 0; off < len(data); off += chunkSize {
				s.Feed(data[off:min(off+chunkSize, len(data))], noEmit)
			}
			s.Close(noEmit)
			e.core.ReleaseStreamer(s)
			return nil
		}},
		{"core.emit", func() error {
			d := newDigest()
			emit := func(tk token.Token, _ []byte) { d.add(tk.Start, tk.End, tk.Rule) }
			s := e.core.AcquireStreamer()
			for off := 0; off < len(data); off += chunkSize {
				s.Feed(data[off:min(off+chunkSize, len(data))], emit)
			}
			rest := s.Close(emit)
			e.core.ReleaseStreamer(s)
			rt.pieces = d.n
			if e.bt == nil {
				l.check(it, "core.emit", d.verify(it.Want, rest))
			}
			return nil
		}},
		{"core.feedbatch", func() error {
			d := newDigest()
			sink := func(ts []token.Token) {
				for _, tk := range ts {
					d.add(tk.Start, tk.End, tk.Rule)
				}
			}
			s := e.core.AcquireStreamer()
			for off := 0; off < len(data); off += chunkSize {
				s.FeedBatch(data[off:min(off+chunkSize, len(data))], sink)
			}
			rest := s.CloseBatch(sink)
			e.core.ReleaseStreamer(s)
			if e.bt == nil {
				l.check(it, "core.feedbatch", d.verify(it.Want, rest))
			}
			return nil
		}},
		{"bpe.stream", func() error {
			if e.bt == nil {
				return nil
			}
			d := newDigest()
			emit := func(tk token.Token, _ []byte) { d.add(tk.Start, tk.End, tk.Rule) }
			s := e.bt.AcquireStream()
			for off := 0; off < len(data); off += chunkSize {
				s.Feed(data[off:min(off+chunkSize, len(data))], emit)
			}
			rest := s.Close(emit)
			e.bt.ReleaseStream(s)
			l.check(it, "bpe.stream", d.verify(it.Want, rest))
			return nil
		}},
		{"streamtok.tokenize", func() error {
			r, closeFn, err := l.reader(it)
			if err != nil {
				return err
			}
			defer closeFn()
			d := newDigest()
			rest, err := e.pub.Tokenize(r, 0, func(tk streamtok.Token, _ []byte) { d.add(tk.Start, tk.End, tk.Rule) })
			if err != nil {
				return err
			}
			l.check(it, "streamtok.tokenize", d.verify(it.Want, rest))
			return nil
		}},
		{"parallel.do", func() error {
			r, closeFn, err := l.reader(it)
			if err != nil {
				return err
			}
			defer closeFn()
			d := newDigest()
			emit := func(tk streamtok.Token, _ []byte) { d.add(tk.Start, tk.End, tk.Rule) }
			h, ok := l.sched.Admit()
			if !ok {
				return fmt.Errorf("ladder scheduler refused admission")
			}
			st := e.pub.AcquireStreamer()
			var chunk []byte
			feed := func() { st.Feed(chunk, emit) }
			for {
				n, rerr := r.Read(l.buf)
				if n > 0 {
					chunk = l.buf[:n]
					h.Do(feed)
				}
				if rerr == io.EOF {
					break
				}
				if rerr != nil {
					h.Finish()
					return rerr
				}
			}
			var rest int
			h.Do(func() { rest = st.Close(emit) })
			h.Finish()
			e.pub.ReleaseStreamer(st)
			l.check(it, "parallel.do", d.verify(it.Want, rest))
			return nil
		}},
		{"server.bin", func() error { return l.loopback(it, "bin") }},
		{"server.ndjson", func() error { return l.loopback(it, "ndjson") }},
	}
	type interval struct {
		name       string
		start, end time.Time
	}
	var spans []interval
	// Repetitions go round the whole ladder, so a slow stretch of the
	// shared host lands on every rung alike, and each rung keeps its
	// fastest time: the cost of its work with the least interference,
	// which is what the differences between rungs need.
	for i := 0; i < l.reps; i++ {
		for _, rg := range rungs {
			if rg.name == "bpe.stream" && e.bt == nil {
				continue
			}
			// The ladder's own prompts in a grammar workload have no
			// vocab on the daemon to go to.
			if (rg.name == "server.bin" || rg.name == "server.ndjson") && (l.d == nil || it.Kind == "ladder-prompt") {
				continue
			}
			t0 := time.Now()
			if err := rg.fn(); err != nil {
				return nil, err
			}
			t1 := time.Now()
			spans = append(spans, interval{rg.name, t0, t1})
			if d, ok := rt.times[rg.name]; !ok || t1.Sub(t0) < d {
				rt.times[rg.name] = t1.Sub(t0)
			}
		}
	}
	if l.tr != nil {
		root := l.tr.record("ladder", 0, spans[0].start, spans[len(spans)-1].end)
		for _, sp := range spans {
			l.tr.record(sp.name, root, sp.start, sp.end)
		}
	}
	return rt, nil
}

var stepSink int

func (l *ladder) reader(it *item) (io.Reader, func(), error) {
	if !l.fromDisk {
		return bytes.NewReader(it.data), func() {}, nil
	}
	f, err := os.Open(it.Path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// check counts one verified rung output and records msg if it failed.
func (l *ladder) check(it *item, rung, msg string) {
	l.checks++
	if msg != "" {
		l.failures = append(l.failures, fmt.Sprintf("ladder %s on item %d: %s", rung, it.ID, msg))
	}
}

func (l *ladder) loopback(it *item, mode string) error {
	o := newOp(it, mode, nil)
	l.check(it, "server."+mode, runOp(l.hc, l.d.base, &o, nil, l.resp).fail)
	return nil
}

// cursor checkpoints a stream of it halfway, resumes it, and finishes it
// on the resumed streamer; the two halves' tokens must make the
// single-shot stream.
func (l *ladder) cursor(it *item) (ckpt, resume time.Duration, size int, err error) {
	e := l.engines[it.Source]
	d := newDigest()
	emit := func(tk streamtok.Token, _ []byte) { d.add(tk.Start, tk.End, tk.Rule) }
	half := len(it.data) / 2
	s := e.pub.AcquireStreamer()
	for off := 0; off < half; off += chunkSize {
		s.Feed(it.data[off:min(off+chunkSize, half)], emit)
	}
	t0 := time.Now()
	blob, err := s.Checkpoint()
	t1 := time.Now()
	e.pub.ReleaseStreamer(s)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("checkpoint of item %d: %w", it.ID, err)
	}
	s2, err := streamtok.Resume(e.pub, blob)
	t2 := time.Now()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("resume of item %d: %w", it.ID, err)
	}
	for off := half; off < len(it.data); off += chunkSize {
		s2.Feed(it.data[off:min(off+chunkSize, len(it.data))], emit)
	}
	rest := s2.Close(emit)
	e.pub.ReleaseStreamer(s2)
	l.check(it, "cursor", d.verify(it.Want, rest))
	return t1.Sub(t0), t2.Sub(t1), len(blob), nil
}

// requestOverhead is the loopback round trip of a one-token body minus
// the in-process Feed of the same body, as medians over n tries.
func (l *ladder) requestOverhead(it *item, n int) (time.Duration, error) {
	e := l.engines[it.Source]
	toks, _ := e.pub.TokenizeBytes(it.data[:min(len(it.data), 4096)])
	if len(toks) == 0 {
		return 0, fmt.Errorf("item %d has no first token", it.ID)
	}
	tiny := &item{ID: it.ID, Source: it.Source, data: it.data[:toks[0].End], Size: toks[0].End}
	d := newDigest()
	d.add(toks[0].Start, toks[0].End, toks[0].Rule)
	tiny.Want = expect{Digest: d.h, Tokens: 1, Rest: toks[0].End}
	tiny.Wire = renderWire([]tokenRec{{toks[0].Start, toks[0].End, toks[0].Rule}}, tiny.data, l.in.names[it.Source], withText(it.Source))
	o := newOp(tiny, "bin", nil)
	var rt, feed []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res := runOp(l.hc, l.d.base, &o, nil, l.resp)
		rt = append(rt, float64(time.Since(t0)))
		l.check(tiny, "server.request", res.fail)
		t0 = time.Now()
		s := e.pub.AcquireStreamer()
		s.Feed(tiny.data, noEmit)
		s.Close(noEmit)
		e.pub.ReleaseStreamer(s)
		feed = append(feed, float64(time.Since(t0)))
	}
	return time.Duration(median(rt) - median(feed)), nil
}

// doOverhead is the median cost of Admit, one Do of an empty function,
// and Finish on the ladder's scheduler.
func (l *ladder) doOverhead(n int) (time.Duration, error) {
	ds := make([]float64, 0, n)
	empty := func() {}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		h, ok := l.sched.Admit()
		if !ok {
			return 0, fmt.Errorf("ladder scheduler refused admission")
		}
		h.Do(empty)
		h.Finish()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}
