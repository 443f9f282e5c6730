package bpe

import (
	"testing"

	"streamtok/internal/core"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// distinctWords builds n distinct alphabetic words of wordLen bytes,
// space-separated: a corpus of unique multi-byte pieces, sized to churn
// through the piece cache's arenas and force wholesale resets.
func distinctWords(n, wordLen int) []byte {
	out := make([]byte, 0, n*(wordLen+1))
	for i := 0; i < n; i++ {
		// Distinct prefix: i in base 26, then padding.
		w := make([]byte, 0, wordLen)
		for v := i; ; v /= 26 {
			w = append(w, byte('a'+v%26))
			if v < 26 {
				break
			}
		}
		for len(w) < wordLen {
			w = append(w, 'q')
		}
		out = append(out, w...)
		out = append(out, ' ')
	}
	return out
}

// TestBPEWarmEncodeZeroAllocs gates the warm serving path: once a
// pooled stream's piece cache has seen the traffic, Feed and FeedBatch
// must not allocate. This is the CI allocation gate for the BPE layer
// (run alongside the core engine's ZeroAllocs tests).
func TestBPEWarmEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	chunk := workload.Prompts(21, 2048)
	sink := func(token.Token, []byte) {}
	batchSink := func([]token.Token) {}

	s := testTok.AcquireStream()
	defer testTok.ReleaseStream(s)
	for i := 0; i < 16; i++ {
		s.Feed(chunk, sink)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.Feed(chunk, sink)
	}); allocs != 0 {
		t.Errorf("warm Feed allocates %.1f per run, want 0", allocs)
	}
	for i := 0; i < 16; i++ {
		s.FeedBatch(chunk, batchSink)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.FeedBatch(chunk, batchSink)
	}); allocs != 0 {
		t.Errorf("warm FeedBatch allocates %.1f per run, want 0", allocs)
	}
}

// TestBPETurnoverZeroAllocs gates the whole pooled serving turn:
// acquire, feed, close, release. The pool keeps the piece cache warm
// across turns, so steady-state request handling allocates nothing.
func TestBPETurnoverZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	chunk := workload.Prompts(23, 2048)
	sink := func(token.Token, []byte) {}
	turn := func() {
		s := testTok.AcquireStream()
		s.Feed(chunk, sink)
		s.Close(sink)
		testTok.ReleaseStream(s)
	}
	for i := 0; i < 16; i++ {
		turn()
	}
	if allocs := testing.AllocsPerRun(200, turn); allocs != 0 {
		t.Errorf("warm turnover allocates %.1f per run, want 0", allocs)
	}
}

// TestBPEMissPathZeroAllocs gates the uncached encode path: with the
// piece cache off every multi-byte piece runs the backtracking search,
// so once the local-validity memo has seen the traffic, Feed must still
// not allocate — the token stack and dead-boundary bitfield are
// per-stream scratch. (The merge-loop safety net is not gated: it is
// the container/heap oracle, which boxes its candidates, and trained
// vocabularies never reach it.)
func TestBPEMissPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	chunk := workload.Prompts(21, 2048)
	sink := func(token.Token, []byte) {}
	tok, err := Compile(testTok.Vocab(), Options{DisablePieceCache: true})
	if err != nil {
		t.Fatal(err)
	}
	s := tok.AcquireStream()
	defer tok.ReleaseStream(s)
	for i := 0; i < 4; i++ {
		s.Feed(chunk, sink)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Feed(chunk, sink)
	}); allocs != 0 {
		t.Errorf("warm miss-path Feed allocates %.1f per run, want 0", allocs)
	}
	if s.StreamCounters().BPEBacktracks == 0 {
		t.Error("no piece backtracked; the gate misses the search")
	}
}

// TestCompileAblations pins the optimization ablations byte-identical:
// the sparse vocab-DFA scan and the piece cache are pure speedups, so
// disabling either (or both) must not change a single emitted token.
func TestCompileAblations(t *testing.T) {
	if testTok.VocabMachine().Sparse == nil {
		t.Fatal("default compile did not adopt the sparse vocab DFA (byte-complete vocab should)")
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"no-sparse", Options{DisableSparse: true}},
		{"no-cache", Options{DisablePieceCache: true}},
		{"no-sparse-no-cache", Options{DisableSparse: true, DisablePieceCache: true}},
	}
	inputs := [][]byte{
		[]byte("Hello, world! It's 42 degrees outside."),
		[]byte("café über 日本語 🙂"),
		{0xff, 0xfe, 0x80, 0x41, 0xc2},
		workload.Prompts(13, 16<<10),
		distinctWords(400, 48),
	}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			tok, err := Compile(testTok.Vocab(), vr.opts)
			if err != nil {
				t.Fatal(err)
			}
			if vr.opts.DisableSparse && tok.VocabMachine().Sparse != nil {
				t.Fatal("DisableSparse compile still adopted the sparse table")
			}
			if !vr.opts.DisableSparse && tok.VocabMachine().Sparse == nil {
				t.Fatal("variant compile did not adopt the sparse table")
			}
			for _, in := range inputs {
				checkAgainstReference(t, tok, in)
				want, wrest := core.TokenizeBytes(testTok, in)
				got, grest := core.TokenizeBytes(tok, in)
				if wrest != grest || len(want) != len(got) {
					t.Fatalf("%s: %d tokens rest %d, default %d tokens rest %d",
						vr.name, len(got), grest, len(want), wrest)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: token %d = %+v, default %+v", vr.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPieceCacheEviction drives enough distinct long pieces through a
// fresh tokenizer to overflow the cache arenas: wholesale resets must
// show up in the eviction counter, hits+misses must still reconcile to
// pieces, and the output must stay byte-identical to the reference.
func TestPieceCacheEviction(t *testing.T) {
	tok, err := Compile(testTok.Vocab(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 16000 distinct 48-byte words: 768 KB of keys against the 512 KiB
	// key arena, so at least one wholesale reset fires.
	input := distinctWords(16000, 48)
	checkAgainstReference(t, tok, input)

	pieces, fallbacks := tok.Counters()
	hits, misses, evictions := tok.CacheCounters()
	if pieces == 0 {
		t.Fatal("no pieces counted")
	}
	if hits+misses != pieces {
		t.Fatalf("hits %d + misses %d != pieces %d", hits, misses, pieces)
	}
	if evictions == 0 {
		t.Fatal("no evictions despite arena-overflowing distinct-piece traffic")
	}
	if misses < 16000 {
		t.Fatalf("misses %d < 16000 distinct multi-byte words", misses)
	}
	if hits == 0 {
		t.Fatal("no hits: the single-byte separators alone should hit")
	}
	if fallbacks > pieces {
		t.Fatalf("fallbacks %d > pieces %d", fallbacks, pieces)
	}
}
