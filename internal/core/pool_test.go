package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// servingCase is one engine-mode configuration for the serving-path
// tests: a grammar with a known k regime and a steady-state input whose
// token boundaries recur, so a warm stream's carry capacity stabilizes.
type servingCase struct {
	name  string
	rules []string
	wantK func(k int) bool
	chunk []byte
	build func(m *tokdfa.Machine, k int) (*core.Tokenizer, error)
}

func buildFused(m *tokdfa.Machine, k int) (*core.Tokenizer, error) {
	return core.NewWithK(m, k, tepath.Limits{})
}

func buildSplit(m *tokdfa.Machine, k int) (*core.Tokenizer, error) {
	return core.NewWithKBudget(m, k, tepath.Limits{}, -1)
}

func buildLazy(m *tokdfa.Machine, k int) (*core.Tokenizer, error) {
	return core.NewWithK(m, k, tepath.Limits{MaxDFAStates: 1})
}

func servingCases() []servingCase {
	k0Rules := []string{`[0-9]`, `[ ]`}
	k1Rules := []string{`[0-9]+`, `[ ]+`}
	genRules := []string{`[0-9]+`, `[0-9]+\.[0-9]+`, `[ ]+`} // K=2, packs
	jsonRules := grammars.JSON().Rules                       // K=3, too large to pack
	k0Chunk := []byte("1 2 3 4 5 6 7 8 ")
	k1Chunk := []byte("123 456 78 9012 ")
	genChunk := []byte("3.14 15.92 6.5 35.89 ")
	jsonChunk := []byte(`{"ab": [1, 2.5e3, true], "c": null} `)
	return []servingCase{
		{"fused-k0", k0Rules, func(k int) bool { return k == 0 }, k0Chunk, buildFused},
		{"split-k0", k0Rules, func(k int) bool { return k == 0 }, k0Chunk, buildSplit},
		{"fused-k1", k1Rules, func(k int) bool { return k == 1 }, k1Chunk, buildFused},
		{"split-k1", k1Rules, func(k int) bool { return k == 1 }, k1Chunk, buildSplit},
		{"fused-general", jsonRules, func(k int) bool { return k >= 2 }, jsonChunk, buildFused},
		{"split-general", genRules, func(k int) bool { return k >= 2 }, genChunk, buildSplit},
		{"split-general-lazy", genRules, func(k int) bool { return k >= 2 }, genChunk, buildLazy},
		{"fused-k2", genRules, func(k int) bool { return k == 2 }, genChunk, buildFused},
	}
}

func buildCase(t *testing.T, c servingCase) *core.Tokenizer {
	t.Helper()
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(c.rules...), tokdfa.Options{})
	res := analysis.Analyze(m)
	if !res.Bounded() || !c.wantK(res.MaxTND) {
		t.Fatalf("%s: unexpected k regime (bounded=%v k=%d)", c.name, res.Bounded(), res.MaxTND)
	}
	tok, err := c.build(m, res.MaxTND)
	if err != nil {
		t.Fatal(err)
	}
	if mode := tok.EngineMode(); mode != c.name {
		t.Fatalf("%s: engine mode %s", c.name, mode)
	}
	return tok
}

// TestFeedSteadyStateZeroAllocs is the PR's zero-allocation guarantee:
// a warm stream's Feed performs no heap allocations in any engine mode,
// for both single-token and batched emission. The boundaries (first
// chunk's ring fill, Close drain, carry growth on a never-before-seen
// spanning token) are documented in README "Serving at scale".
func TestFeedSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range servingCases() {
		t.Run(c.name, func(t *testing.T) {
			tok := buildCase(t, c)
			var last token.Token
			emit := func(tk token.Token, _ []byte) { last = tk }
			s := tok.AcquireStreamer()
			defer tok.ReleaseStreamer(s)
			for i := 0; i < 16; i++ { // warm: fill the ring, grow the carry cap
				s.Feed(c.chunk, emit)
			}
			if allocs := testing.AllocsPerRun(200, func() { s.Feed(c.chunk, emit) }); allocs != 0 {
				t.Errorf("%s: steady-state Feed allocates %.1f/op, want 0", c.name, allocs)
			}
			_ = last

			var n int
			sink := func(batch []token.Token) { n += len(batch) }
			sb := tok.AcquireStreamer()
			defer tok.ReleaseStreamer(sb)
			for i := 0; i < 16; i++ {
				sb.FeedBatch(c.chunk, sink)
			}
			if allocs := testing.AllocsPerRun(200, func() { sb.FeedBatch(c.chunk, sink) }); allocs != 0 {
				t.Errorf("%s: steady-state FeedBatch allocates %.1f/op, want 0", c.name, allocs)
			}
		})
	}
}

// TestStreamTurnoverZeroAllocs: with pooling, a whole
// acquire→feed→close→release stream lifecycle on a warm tokenizer
// allocates nothing either — the serving path's per-connection cost.
func TestStreamTurnoverZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range servingCases() {
		t.Run(c.name, func(t *testing.T) {
			tok := buildCase(t, c)
			emit := func(token.Token, []byte) {}
			turn := func() {
				s := tok.AcquireStreamer()
				s.Feed(c.chunk, emit)
				s.Close(emit)
				tok.ReleaseStreamer(s)
			}
			for i := 0; i < 16; i++ {
				turn()
			}
			if allocs := testing.AllocsPerRun(200, turn); allocs != 0 {
				t.Errorf("%s: warm stream turnover allocates %.1f/op, want 0", c.name, allocs)
			}
		})
	}
}

// TestTokenizeReaderPathZeroAllocs: the io.Reader driver reuses pooled
// streamers and pooled read buffers, so warm Tokenize calls allocate
// nothing beyond what the caller's reader does.
func TestTokenizeReaderPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := servingCases()[2] // fused-k1
	tok := buildCase(t, c)
	input := bytes.Repeat(c.chunk, 256)
	emit := func(token.Token, []byte) {}
	rd := bytes.NewReader(input)
	run := func() {
		rd.Reset(input)
		if _, err := tok.Tokenize(rd, 4096, emit); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm Tokenize allocates %.1f/op, want 0", allocs)
	}
}

// TestBatchMatchesSingleEmission: FeedBatch/CloseBatch deliver exactly
// the token stream Feed/Close do, across engine modes, chunkings, and
// random inputs (including untokenizable tails).
func TestBatchMatchesSingleEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range servingCases() {
		tok := buildCase(t, c)
		for trial := 0; trial < 20; trial++ {
			input := testutil.RandomInput(rng, []byte("0123456789. x"), 200+rng.Intn(2000))
			chunk := 1 + rng.Intn(97)

			var want []token.Token
			s1 := tok.AcquireStreamer()
			emit := func(tk token.Token, _ []byte) { want = append(want, tk) }
			feedAll(s1, input, chunk, func(s *core.Streamer, part []byte) { s.Feed(part, emit) })
			wantFed := s1.StreamCounters()
			wantRest := s1.Close(emit)
			wantClosed := s1.StreamCounters()
			tok.ReleaseStreamer(s1)

			var got []token.Token
			s2 := tok.AcquireStreamer()
			sink := func(batch []token.Token) { got = append(got, batch...) }
			feedAll(s2, input, chunk, func(s *core.Streamer, part []byte) { s.FeedBatch(part, sink) })
			gotFed := s2.StreamCounters()
			gotRest := s2.CloseBatch(sink)
			gotClosed := s2.StreamCounters()
			tok.ReleaseStreamer(s2)

			// The counters describe the stream, not the emission API:
			// checkpoints carry them, so a held stream's cursor must not
			// depend on which one fed it.
			if !reflect.DeepEqual(wantFed, gotFed) || !reflect.DeepEqual(wantClosed, gotClosed) {
				t.Fatalf("%s: batch counters differ:\nfed    %+v\nsingle %+v\nclosed %+v\nsingle %+v",
					c.name, gotFed, wantFed, gotClosed, wantClosed)
			}
			if wantRest != gotRest || len(want) != len(got) {
				t.Fatalf("%s: batch rest=%d tokens=%d, single rest=%d tokens=%d",
					c.name, gotRest, len(got), wantRest, len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: token %d differs: batch %+v, single %+v", c.name, i, got[i], want[i])
				}
			}
		}
	}
}

func feedAll(s *core.Streamer, input []byte, chunk int, feed func(*core.Streamer, []byte)) {
	for off := 0; off < len(input); off += chunk {
		end := off + chunk
		if end > len(input) {
			end = len(input)
		}
		feed(s, input[off:end])
	}
}

// TestBatchFlushPressure: a token-dense chunk larger than the batch
// buffer still delivers every token, in order, across several flushes.
func TestBatchFlushPressure(t *testing.T) {
	c := servingCases()[0] // k0: one token per byte, maximal flush pressure
	tok := buildCase(t, c)
	input := bytes.Repeat([]byte("7 "), 3000) // 6000 tokens >> batchCap
	var got []token.Token
	flushes := 0
	s := tok.AcquireStreamer()
	sink := func(batch []token.Token) { flushes++; got = append(got, batch...) }
	s.FeedBatch(input, sink)
	rest := s.CloseBatch(sink)
	tok.ReleaseStreamer(s)
	if rest != len(input) {
		t.Fatalf("rest=%d, want %d", rest, len(input))
	}
	if len(got) != len(input) {
		t.Fatalf("got %d tokens, want %d", len(got), len(input))
	}
	if flushes < 2 {
		t.Errorf("expected multiple flushes for a token-dense chunk, got %d", flushes)
	}
	for i, tk := range got {
		if tk.Start != i || tk.End != i+1 {
			t.Fatalf("token %d = %+v, want [%d,%d)", i, tk, i, i+1)
		}
	}
}

// TestPoolReuseAndReset: released streamers come back reset — a pooled
// acquire tokenizes exactly like a fresh streamer, and Reset mid-stream
// discards the old stream into the aggregate.
func TestPoolReuseAndReset(t *testing.T) {
	c := servingCases()[4] // fused-general
	tok := buildCase(t, c)
	input := bytes.Repeat(c.chunk, 50)
	wantToks, wantRest := tok.TokenizeBytes(input)

	// Dirty a streamer mid-stream, release it, and re-acquire: the next
	// stream must be pristine.
	s := tok.AcquireStreamer()
	s.Feed(input[:101], func(token.Token, []byte) {})
	tok.ReleaseStreamer(s)

	s = tok.AcquireStreamer()
	var got []token.Token
	emit := func(tk token.Token, _ []byte) { got = append(got, tk) }
	s.Feed(input, emit)
	rest := s.Close(emit)
	tok.ReleaseStreamer(s)
	if rest != wantRest || len(got) != len(wantToks) {
		t.Fatalf("pooled reuse: rest=%d tokens=%d, want rest=%d tokens=%d", rest, len(got), wantRest, len(wantToks))
	}
	for i := range got {
		if got[i] != wantToks[i] {
			t.Fatalf("pooled reuse: token %d = %+v, want %+v", i, got[i], wantToks[i])
		}
	}

	// Reset mid-stream restarts at offset 0 with fresh state.
	s = tok.AcquireStreamer()
	s.Feed(input[:57], func(token.Token, []byte) {})
	s.Reset()
	got = got[:0]
	s.Feed(input, emit)
	rest = s.Close(emit)
	tok.ReleaseStreamer(s)
	if rest != wantRest || len(got) != len(wantToks) {
		t.Fatalf("after Reset: rest=%d tokens=%d, want rest=%d tokens=%d", rest, len(got), wantRest, len(wantToks))
	}
}

// TestPoolConcurrentReconciliation drives the pooled serving path from
// many goroutines — acquire, feed in chunks, close, release — and
// checks the tokenizer-wide observability aggregate reconciles exactly
// with the per-goroutine token tallies. Run with -race in CI. The lazy
// case matters there: its streams grow private clones of one shared
// TeDFA template, which must never be written.
func TestPoolConcurrentReconciliation(t *testing.T) {
	for _, c := range servingCases() {
		if c.name == "fused-general" || c.name == "fused-k2" || c.name == "split-general-lazy" {
			t.Run(c.name, func(t *testing.T) { poolConcurrentReconciliation(t, c) })
		}
	}
}

func poolConcurrentReconciliation(t *testing.T, c servingCase) {
	const (
		goroutines = 8
		streams    = 25
	)
	tok := buildCase(t, c)
	input := bytes.Repeat(c.chunk, 200)
	wantToks, _ := tok.TokenizeBytes(input)
	// TokenizeBytes above already retired one stream into the aggregate;
	// measure deltas from here.
	base := tok.AggregateCounters()

	var wg sync.WaitGroup
	counts := make([]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < streams; i++ {
				s := tok.AcquireStreamer()
				emit := func(token.Token, []byte) { counts[g]++ }
				for off := 0; off < len(input); off += 1024 {
					end := off + 1024
					if end > len(input) {
						end = len(input)
					}
					s.Feed(input[off:end], emit)
				}
				s.Close(emit)
				tok.ReleaseStreamer(s)
			}
		}()
	}
	wg.Wait()

	var tokens uint64
	for _, n := range counts {
		tokens += n
	}
	if want := uint64(goroutines * streams * len(wantToks)); tokens != want {
		t.Fatalf("emitted %d tokens across goroutines, want %d", tokens, want)
	}
	agg := tok.AggregateCounters()
	if got := agg.Streams - base.Streams; got != goroutines*streams {
		t.Errorf("aggregate Streams delta = %d, want %d", got, goroutines*streams)
	}
	if got := agg.StreamsDone - base.StreamsDone; got != goroutines*streams {
		t.Errorf("aggregate StreamsDone delta = %d, want %d", got, goroutines*streams)
	}
	if got := agg.BytesIn - base.BytesIn; got != uint64(goroutines*streams*len(input)) {
		t.Errorf("aggregate BytesIn delta = %d, want %d", got, goroutines*streams*len(input))
	}
	if got := agg.TokensOut - base.TokensOut; got != tokens {
		t.Errorf("aggregate TokensOut delta = %d, want %d (emitted)", got, tokens)
	}
}

// TestPooledTokenizeConcurrent exercises the full pooled Tokenize
// driver (streamer + read-buffer pools) from many goroutines at
// different buffer sizes.
func TestPooledTokenizeConcurrent(t *testing.T) {
	c := servingCases()[2] // fused-k1
	tok := buildCase(t, c)
	input := bytes.Repeat(c.chunk, 300)
	wantToks, wantRest := tok.TokenizeBytes(input)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		bufSize := 512 << (g % 4) // mixed sizes stress the buffer pool
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := 0
				rest, err := tok.Tokenize(bytes.NewReader(input), bufSize, func(token.Token, []byte) { n++ })
				if err != nil {
					errs <- err
					return
				}
				if rest != wantRest || n != len(wantToks) {
					errs <- fmt.Errorf("bufSize=%d: rest=%d tokens=%d, want %d/%d", bufSize, rest, n, wantRest, len(wantToks))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBigGrammarFusedZeroAllocs: the byte-class compressed fused engine
// stays allocation-free on the warm path at keyword-grammar scale (1k
// rules, K=2 paired action tables) — the regime where the dense layout
// blew the fused budget and fell back to the split loops. The compressed
// tables fit the default budget, so this also pins that a 1k-rule
// grammar actually serves fused.
func TestBigGrammarFusedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rules, err := workload.BigGrammarRules(1000)
	if err != nil {
		t.Fatal(err)
	}
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true})
	res := analysis.Analyze(m)
	if !res.Bounded() || res.MaxTND != 2 {
		t.Fatalf("big grammar k regime: bounded=%v k=%d, want k=2", res.Bounded(), res.MaxTND)
	}
	tok, err := core.NewWithKBudget(m, res.MaxTND, tepath.Limits{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mode := tok.EngineMode(); mode != "fused-general" {
		t.Fatalf("engine mode = %s, want fused-general (compressed tables under default budget)", mode)
	}
	chunk, err := workload.BigGrammarInput(7, 4096, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var last token.Token
	emit := func(tk token.Token, _ []byte) { last = tk }
	s := tok.AcquireStreamer()
	defer tok.ReleaseStreamer(s)
	for i := 0; i < 16; i++ {
		s.Feed(chunk, emit)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Feed(chunk, emit) }); allocs != 0 {
		t.Errorf("steady-state Feed allocates %.1f/op, want 0", allocs)
	}
	_ = last
}
