package streamtok_test

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"testing"
	"time"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/workload"
)

// statsInput generates an input matching the named catalog grammar.
func statsInput(t *testing.T, name string, n int) []byte {
	t.Helper()
	if name == "sql-inserts" {
		return workload.SQLInserts(2026, n)
	}
	in, err := workload.Generate(name, 2026, n)
	if err != nil {
		t.Fatalf("workload.Generate(%q): %v", name, err)
	}
	return in
}

// TestStatsReconciliation feeds every bounded catalog grammar a matching
// workload under both engines and several chunkings, and checks that the
// observability snapshot reconciles exactly with the emitted token
// stream: byte counts, token counts (total and per rule), the latency
// histogram mass, and the paper's bounds on the high-water marks
// (RingMax ≤ K ≤ the Lemma 11 dichotomy bound, CarryMax ≤ longest
// token + K).
func TestStatsReconciliation(t *testing.T) {
	chunkings := []int{1, 7, 4096, 0} // 0 = whole input in one Feed
	for _, name := range streamtok.Catalog() {
		g, err := streamtok.CatalogGrammar(name)
		if err != nil {
			t.Fatalf("CatalogGrammar(%q): %v", name, err)
		}
		an, err := streamtok.Analyze(g)
		if err != nil {
			t.Fatalf("Analyze(%q): %v", name, err)
		}
		if !an.Bounded {
			continue // StreamTok does not apply; nothing to reconcile
		}
		input := statsInput(t, name, 32<<10)
		for _, disableFused := range []bool{false, true} {
			tok, err := streamtok.NewWithOptions(g, streamtok.Options{
				Minimize:     true,
				DisableFused: disableFused,
			})
			if err != nil {
				t.Fatalf("NewWithOptions(%q, fused=%v): %v", name, !disableFused, err)
			}
			for _, chunk := range chunkings {
				t.Run(fmt.Sprintf("%s/%s/chunk=%d", name, tok.Engine().Mode, chunk), func(t *testing.T) {
					reconcileOneStream(t, tok, an, input, chunk)
				})
			}
		}
	}
}

func reconcileOneStream(t *testing.T, tok *streamtok.Tokenizer, an streamtok.Analysis, input []byte, chunk int) {
	t.Helper()
	s := tok.NewStreamer()
	var tokens []streamtok.Token
	maxTokenLen := 0
	emit := func(tk streamtok.Token, text []byte) {
		tokens = append(tokens, tk)
		if tk.Len() > maxTokenLen {
			maxTokenLen = tk.Len()
		}
		if !bytes.Equal(text, input[tk.Start:tk.End]) {
			t.Fatalf("token %d text mismatch at [%d,%d)", len(tokens)-1, tk.Start, tk.End)
		}
	}
	feeds := uint64(0)
	if chunk <= 0 {
		feeds = 1
		s.Feed(input, emit)
	} else {
		for off := 0; off < len(input); off += chunk {
			end := off + chunk
			if end > len(input) {
				end = len(input)
			}
			if !s.Stopped() { // Feed ignores (and does not count) chunks after a stop
				feeds++
			}
			s.Feed(input[off:end], emit)
		}
	}
	rest := s.Close(emit)
	st := s.Stats()

	// Token-stream identities.
	prev := 0
	for i, tk := range tokens {
		if tk.Start != prev {
			t.Fatalf("token %d starts at %d, want %d (stream must be contiguous)", i, tk.Start, prev)
		}
		prev = tk.End
	}
	if prev != rest {
		t.Fatalf("last token ends at %d but Close returned rest=%d", prev, rest)
	}
	if rest != len(input) && !s.Stopped() {
		t.Fatalf("rest=%d < len(input)=%d without a stop", rest, len(input))
	}

	// Counter ↔ stream reconciliation.
	if st.BytesIn != uint64(len(input)) {
		t.Errorf("BytesIn=%d, want %d", st.BytesIn, len(input))
	}
	if st.Chunks != feeds {
		t.Errorf("Chunks=%d, want %d", st.Chunks, feeds)
	}
	if st.TokensOut != uint64(len(tokens)) {
		t.Errorf("TokensOut=%d, want %d", st.TokensOut, len(tokens))
	}
	byRule := make([]uint64, len(st.TokensByRule))
	for _, tk := range tokens {
		if tk.Rule < 0 || tk.Rule >= len(byRule) {
			t.Fatalf("token rule %d out of range [0,%d)", tk.Rule, len(byRule))
		}
		byRule[tk.Rule]++
	}
	for r, want := range byRule {
		if st.TokensByRule[r] != want {
			t.Errorf("TokensByRule[%d] (%s) = %d, want %d", r, st.RuleNames[r], st.TokensByRule[r], want)
		}
	}
	var latMass uint64
	for _, n := range st.EmitLatency {
		latMass += n
	}
	if latMass != st.TokensOut {
		t.Errorf("sum(EmitLatency)=%d, want TokensOut=%d", latMass, st.TokensOut)
	}

	// Paper bounds: the delay ring never exceeds K (Theorem 9's lookahead
	// bound), K never exceeds the Lemma 11 dichotomy bound, and the carry
	// holds at most one pending token prefix plus the delayed lookahead.
	k := tok.K()
	if st.RingMax > uint64(k) {
		t.Errorf("RingMax=%d > K=%d", st.RingMax, k)
	}
	if bound := analysis.DichotomyBound(an.DFASize); k > bound {
		t.Errorf("K=%d > dichotomy bound %d (DFA %d states)", k, bound, an.DFASize)
	}
	if st.CarryMax > uint64(maxTokenLen+k) {
		t.Errorf("CarryMax=%d > max token len %d + K %d", st.CarryMax, maxTokenLen, k)
	}

	// Certificate ↔ observation reconciliation: every bounded tokenizer
	// carries a certificate, and the run's observed high-water marks must
	// stay under its static claims — a certified bound an execution can
	// exceed is a broken certifier, the one failure mode load-time
	// verification cannot catch.
	c := tok.Certificate()
	if c == nil {
		t.Fatal("bounded tokenizer has no resource certificate")
	}
	if c.DelayK != k {
		t.Errorf("certified DelayK=%d != engine K=%d", c.DelayK, k)
	}
	if st.RingMax > uint64(c.RingBytes) {
		t.Errorf("observed RingMax=%d exceeds certified ring %d B", st.RingMax, c.RingBytes)
	}
	if eng := tok.Engine(); c.TableBytes != eng.TableBytes {
		t.Errorf("certified TableBytes=%d != engine's %d", c.TableBytes, eng.TableBytes)
	}
	if c.DelayK > c.DichotomyBound {
		t.Errorf("certified K=%d exceeds its dichotomy bound %d", c.DelayK, c.DichotomyBound)
	}

	if st.Streams != 1 || st.StreamsDone != 1 {
		t.Errorf("Streams=%d StreamsDone=%d, want 1/1 after Close", st.Streams, st.StreamsDone)
	}
}

// TestAggregateStats checks that the tokenizer-level aggregate is the sum
// of its streams' snapshots, with finished streams folded in exactly.
func TestAggregateStats(t *testing.T) {
	g, err := streamtok.CatalogGrammar("json")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	input := statsInput(t, "json", 8<<10)
	emit := func(streamtok.Token, []byte) {}

	s1 := tok.NewStreamer()
	s1.Feed(input, emit)
	s1.Close(emit)

	s2 := tok.NewStreamer()
	s2.Feed(input[:4<<10], emit)

	agg := tok.AggregateStats()
	if agg.Streams != 2 || agg.StreamsDone != 1 {
		t.Errorf("Streams=%d StreamsDone=%d, want 2/1 (one closed, one live)", agg.Streams, agg.StreamsDone)
	}
	want := uint64(len(input) + 4<<10)
	if agg.BytesIn != want {
		t.Errorf("BytesIn=%d, want %d", agg.BytesIn, want)
	}
	s1Tokens := s1.Stats().TokensOut
	if agg.TokensOut < s1Tokens {
		t.Errorf("aggregate TokensOut=%d < closed stream's %d", agg.TokensOut, s1Tokens)
	}

	s2.Close(emit)
	agg = tok.AggregateStats()
	if agg.StreamsDone != 2 {
		t.Errorf("StreamsDone=%d after both closes, want 2", agg.StreamsDone)
	}
	// Closed streams must be retired out of the live set exactly once:
	// a second aggregate sees identical numbers.
	again := tok.AggregateStats()
	if again.BytesIn != agg.BytesIn || again.TokensOut != agg.TokensOut {
		t.Errorf("aggregate changed between identical snapshots: %+v vs %+v", agg, again)
	}
}

// TestBPEStatsReconciliation checks the vocabulary tokenizer's BPE
// counters against their invariants in every snapshot — a live stream,
// the same stream after Close, a resumed stream, and the aggregate
// after every stream closed: each pretokenizer token is one encoded
// piece (BPEPieces == TokensOut; a resumed stream is exempt, since its
// cursor carries the token counts but not the BPE ones), every piece is
// exactly one cache hit or one miss, and only misses reach the search,
// so backtracks+fallbacks <= misses <= pieces. The repetitive prompt
// workload must actually hit the cache and backtrack on some misses.
func TestBPEStatsReconciliation(t *testing.T) {
	v, err := streamtok.TrainVocab(workload.Prompts(3, 1<<18), 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.Compile(v, streamtok.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := workload.Prompts(9, 64<<10)
	emit := func(streamtok.Token, []byte) {}
	check := func(what string, st streamtok.Stats, resumed bool) {
		t.Helper()
		if st.BPEPieces == 0 {
			t.Fatalf("%s: no pieces counted on a vocabulary tokenizer", what)
		}
		if !resumed && st.BPEPieces != st.TokensOut {
			t.Errorf("%s: pieces %d != pretokenizer tokens %d", what, st.BPEPieces, st.TokensOut)
		}
		if st.BPECacheHits+st.BPECacheMisses != st.BPEPieces {
			t.Errorf("%s: cache hits %d + misses %d != pieces %d",
				what, st.BPECacheHits, st.BPECacheMisses, st.BPEPieces)
		}
		if st.BPEBacktracks+st.BPEFallbacks > st.BPECacheMisses || st.BPECacheMisses > st.BPEPieces {
			t.Errorf("%s: backtracks %d + fallbacks %d <= misses %d <= pieces %d does not hold",
				what, st.BPEBacktracks, st.BPEFallbacks, st.BPECacheMisses, st.BPEPieces)
		}
	}
	feed := func(s *streamtok.Streamer, in []byte) {
		for off := 0; off < len(in); off += 4 << 10 {
			s.Feed(in[off:min(off+4<<10, len(in))], emit)
		}
	}

	s := tok.AcquireStreamer()
	feed(s, input)
	live := s.Stats()
	check("live stream", live, false)
	if live.BPEBacktracks == 0 {
		t.Error("prompt workload backtracked on no piece")
	}
	if live.BPECacheHits == 0 {
		t.Error("prompt workload produced no cache hits")
	}
	s.Close(emit)
	closed := s.Stats()
	check("closed stream", closed, false)
	if closed.BPEPieces < live.BPEPieces {
		t.Errorf("Close lost pieces: %d after, %d before", closed.BPEPieces, live.BPEPieces)
	}
	tok.ReleaseStreamer(s)

	// A suspend/resume cycle: the suspended half folds at release, the
	// resumed half counts only its own pieces.
	cut := len(input) / 2
	s = tok.AcquireStreamer()
	feed(s, input[:cut])
	cur, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tok.ReleaseStreamer(s)
	r, err := streamtok.Resume(tok, cur)
	if err != nil {
		t.Fatal(err)
	}
	feed(r, input[cut:])
	r.Close(emit)
	check("resumed stream", r.Stats(), true)
	tok.ReleaseStreamer(r)

	if _, err := tok.Tokenize(bytes.NewReader(input), 0, emit); err != nil {
		t.Fatal(err)
	}
	agg := tok.AggregateStats()
	check("aggregate", agg, false)
	if agg.StreamsDone != agg.Streams || agg.Streams != 4 {
		t.Errorf("aggregate streams %d started, %d done, want 4 and 4", agg.Streams, agg.StreamsDone)
	}
	if agg.BPEBacktracks < closed.BPEBacktracks {
		t.Errorf("aggregate backtracks %d < the first stream's %d", agg.BPEBacktracks, closed.BPEBacktracks)
	}

	// The aggregate must be stable across identical snapshots, and the
	// folded streams must not double-count.
	again := tok.AggregateStats()
	if again.BPEPieces != agg.BPEPieces || again.BPECacheHits != agg.BPECacheHits {
		t.Errorf("aggregate changed between identical snapshots: %+v vs %+v", agg, again)
	}
}

// TestTokenizeContextCancel checks that a cancelled context stops the
// stream at a chunk boundary with ctx.Err and a consistent offset.
func TestTokenizeContextCancel(t *testing.T) {
	g, err := streamtok.CatalogGrammar("json")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	input := statsInput(t, "json", 64<<10)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first read
	rest, err := tok.TokenizeContext(ctx, bytes.NewReader(input), 4<<10, func(streamtok.Token, []byte) {})
	if err != context.Canceled {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if rest != 0 {
		t.Fatalf("rest=%d, want 0 for a pre-cancelled context", rest)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	rest, err = tok.TokenizeContext(ctx2, bytes.NewReader(input), 4<<10, func(streamtok.Token, []byte) {})
	if err != nil {
		t.Fatalf("TokenizeContext with live context: %v", err)
	}
	if rest != len(input) {
		t.Fatalf("rest=%d, want %d", rest, len(input))
	}
}

// TestEngineInfoConsistency pins the deprecated accessors to the
// EngineInfo fields they now delegate to.
func TestEngineInfoConsistency(t *testing.T) {
	for _, name := range []string{"json", "log", "fasta"} {
		g, err := streamtok.CatalogGrammar(name)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := streamtok.New(g)
		if err != nil {
			t.Fatal(err)
		}
		e := tok.Engine()
		if e.K != tok.K() {
			t.Errorf("%s: Engine().K=%d, want %d", name, e.K, tok.K())
		}
		if e.LazyTeDFA != strings.HasSuffix(e.Mode, "-lazy") {
			t.Errorf("%s: LazyTeDFA=%v inconsistent with mode %q", name, e.LazyTeDFA, e.Mode)
		}
		if !strings.Contains(e.String(), e.Mode) {
			t.Errorf("%s: EngineInfo.String() %q omits the mode", name, e.String())
		}
	}
}

// TestStatsJSONKeys pins the snake_case JSON surface shared by
// cmd/streamtok -stats and expvar publication.
func TestStatsJSONKeys(t *testing.T) {
	g, err := streamtok.CatalogGrammar("json")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	s := tok.NewStreamer()
	s.Feed(statsInput(t, "json", 4<<10), func(streamtok.Token, []byte) {})
	s.Close(func(streamtok.Token, []byte) {})

	raw, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("Stats JSON does not round-trip: %v\n%s", err, raw)
	}
	for _, key := range []string{
		"streams", "streams_done", "bytes_in", "chunks", "tokens_out",
		"tokens_by_rule", "accel_attempts", "accel_skipped_bytes",
		"accel_backoffs", "fused_fallbacks", "carry_max", "ring_max",
		"emit_latency", "max_latency",
		"bpe_pieces", "bpe_backtracks", "bpe_fallbacks", "bpe_cache_hits",
		"bpe_cache_misses", "bpe_cache_evictions",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("Stats JSON missing key %q", key)
		}
	}

	eraw, err := json.Marshal(tok.Engine())
	if err != nil {
		t.Fatal(err)
	}
	var em map[string]any
	if err := json.Unmarshal(eraw, &em); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mode", "k", "accel_states", "table_bytes", "lazy_tedfa"} {
		if _, ok := em[key]; !ok {
			t.Errorf("EngineInfo JSON missing key %q", key)
		}
	}
}

// TestPublishStats checks the live expvar: reads through the registry
// re-aggregate, and the rendered value is the Stats JSON.
func TestPublishStats(t *testing.T) {
	g, err := streamtok.CatalogGrammar("log")
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.New(g)
	if err != nil {
		t.Fatal(err)
	}
	tok.PublishStats("streamtok_test_live") // expvar names are process-global: publish once
	input := statsInput(t, "log", 4<<10)
	s := tok.NewStreamer()
	s.Feed(input, func(streamtok.Token, []byte) {})
	s.Close(func(streamtok.Token, []byte) {})

	v := expvar.Get("streamtok_test_live")
	if v == nil {
		t.Fatal("PublishStats did not register the variable")
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar value is not the Stats JSON: %v\n%s", err, v.String())
	}
	if got := m["bytes_in"].(float64); got != float64(len(input)) {
		t.Errorf("live expvar bytes_in=%v, want %d", got, len(input))
	}

	tok.AggregateStats().Publish("streamtok_test_snapshot")
	if expvar.Get("streamtok_test_snapshot") == nil {
		t.Fatal("Stats.Publish did not register the variable")
	}
}
