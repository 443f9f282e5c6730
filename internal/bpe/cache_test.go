package bpe

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"streamtok/internal/core"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// distinctWords builds n distinct alphabetic words of wordLen bytes,
// space-separated: a corpus of unique multi-byte pieces that churns
// through the piece cache.
func distinctWords(n, wordLen int) []byte {
	out := make([]byte, 0, n*(wordLen+1))
	for i := 0; i < n; i++ {
		// Distinct prefix: i in base 16 as letters a–p, then padding
		// with a letter that is not a digit.
		w := make([]byte, 0, wordLen)
		for v := i; ; v /= 16 {
			w = append(w, byte('a'+v%16))
			if v < 16 {
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
// so Feed must not allocate — the token stack and dead-boundary
// bitfield are per-stream scratch. (The merge-loop safety net is not
// gated: it is the container/heap oracle, which boxes its candidates,
// and trained vocabularies never reach it.)
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

// randomWords returns n space-led random lowercase words of 3–12
// letters: pieces drawn from 26^k strings, so next to none repeats or
// occurs in prompt text.
func randomWords(rng *rand.Rand, n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, ' ')
		for l := 3 + rng.Intn(10); l > 0; l-- {
			out = append(out, byte('a'+rng.Intn(26)))
		}
	}
	return out
}

// TestBPEColdEncodeZeroAllocs gates the cold encode path: with the
// piece cache off, a stream whose scratch was warmed on one text must
// encode text whose pieces it has never seen without allocating. The
// local-validity walk reads the vocabulary's immutable tables and
// memoizes nothing, so no warm-up of the vocabulary is involved: each
// measured run feeds fresh random words.
func TestBPEColdEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	tok, err := Compile(testTok.Vocab(), Options{DisablePieceCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sink := func(token.Token, []byte) {}
	s := tok.AcquireStream()
	defer tok.ReleaseStream(s)
	s.Feed(workload.Prompts(21, 2048), sink)
	s.Feed(randomWords(rand.New(rand.NewSource(30)), 256), sink)

	const runs = 100
	rng := rand.New(rand.NewSource(31))
	chunks := make([][]byte, runs+1) // AllocsPerRun adds a warm-up run
	for i := range chunks {
		chunks[i] = randomWords(rng, 64)
	}
	before := s.StreamCounters()
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		s.Feed(chunks[next], sink)
		next++
	}); allocs != 0 {
		t.Errorf("cold Feed allocates %.1f per run, want 0", allocs)
	}
	after := s.StreamCounters()
	if after.BPEBacktracks == before.BPEBacktracks {
		t.Error("no cold piece backtracked; the gate misses the search")
	}
	if after.BPECacheHits+after.BPECacheMisses-before.BPECacheHits-before.BPECacheMisses < runs*64 {
		t.Error("fewer pieces than words: the gate misses the encoder")
	}
}

// TestParallelStreamsShareVocab runs streams of one Tokenizer — one
// Vocab, whose validity tables every search reads — on several
// goroutines at once, each encoding its own text, and requires each
// result to equal Vocab.Encode. Under the race detector it pins the
// claim that a Vocab is immutable and needs no lock.
func TestParallelStreamsShareVocab(t *testing.T) {
	tok, err := Compile(testTok.Vocab(), Options{DisablePieceCache: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + w)))
			for round := 0; round < rounds; round++ {
				in := append(workload.Prompts(int64(50+w*rounds+round), 8<<10), randomWords(rng, 256)...)
				want := tok.Vocab().Encode(nil, in)
				got, rest := core.TokenizeBytes(tok, in)
				if rest != len(in) || len(got) != len(want) {
					t.Errorf("worker %d round %d: %d tokens rest %d, reference %d tokens of %d bytes",
						w, round, len(got), rest, len(want), len(in))
					return
				}
				for i := range got {
					if got[i].Rule != want[i] {
						t.Errorf("worker %d round %d: token %d rank %d, reference %d", w, round, i, got[i].Rule, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
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

// TestPieceCacheFootprint pins the cache's fixed size: a slot fits in
// 32 bytes, half a cache line, and slots plus spill arenas stay within
// 2.25 MiB per stream. It also pins the constants to the slot's field
// widths, so a resize that would truncate an offset or a length fails
// here rather than returning wrong ranks.
func TestPieceCacheFootprint(t *testing.T) {
	slot := int(unsafe.Sizeof(cacheSlot{}))
	if slot != 32 {
		t.Errorf("cacheSlot is %d bytes, want 32", slot)
	}
	if maxCachedPieceLen > 255 {
		t.Errorf("maxCachedPieceLen %d does not fit the uint8 keyLen and rankLen", maxCachedPieceLen)
	}
	if cacheRankSpillLen > 1<<16 {
		t.Errorf("cacheRankSpillLen %d overflows the uint16 rankOff", cacheRankSpillLen)
	}
	if cacheInlineKey < 4 || cacheKeySpillBytes > 1<<32 {
		t.Errorf("a spilled key's offset (arena %d bytes) does not fit key[:4] of %d inline bytes",
			cacheKeySpillBytes, cacheInlineKey)
	}
	c := newPieceCache()
	total := len(c.slots)*slot + cap(c.keys) + cap(c.ranks)*int(unsafe.Sizeof(int32(0)))
	if total > 2304<<10 {
		t.Errorf("piece cache is %d bytes per stream, over 2.25 MiB", total)
	}
}

// TestPieceCacheSpillFull fills each spill arena and checks that a
// piece which would overflow it is left uncached without a reset: the
// entries already cached, the short one among them, still hit with
// their ranks.
func TestPieceCacheSpillFull(t *testing.T) {
	c := newPieceCache()
	insert := func(key []byte, ranks []int32) {
		t.Helper()
		if ev := c.insert(key, pieceHash(key), ranks); ev != 0 {
			t.Fatalf("insert %q evicted %d entries", key, ev)
		}
	}
	hits := func(key []byte, want []int32) bool {
		head, tail := c.lookup(key, pieceHash(key))
		got := append(append([]int32{}, head...), tail...)
		return head != nil && fmt.Sprint(got) == fmt.Sprint(want)
	}
	short := []byte("ab")
	insert(short, []int32{7})

	longKey := func(i int) []byte { return []byte(fmt.Sprintf("%040d", i)) }
	n := 0
	for ; len(c.keys)+40 <= cacheKeySpillBytes; n++ {
		insert(longKey(n), []int32{int32(n)})
	}
	insert(longKey(n), []int32{int32(n)})
	if hits(longKey(n), []int32{int32(n)}) {
		t.Error("a key past the full key arena was cached")
	}

	manyRanks := func(i int) []int32 {
		r := make([]int32, 10)
		for j := range r {
			r[j] = int32(i + j)
		}
		return r
	}
	shortKey := func(i int) []byte { return []byte(fmt.Sprintf("%012d", i)) }
	m := 0
	for ; len(c.ranks)+10-cacheInlineRanks <= cacheRankSpillLen; m++ {
		insert(shortKey(m), manyRanks(m))
	}
	entries := c.entries
	insert(shortKey(m), manyRanks(m))
	if hits(shortKey(m), manyRanks(m)) || c.entries != entries {
		t.Error("an encoding past the full rank arena was cached")
	}

	if !hits(short, []int32{7}) {
		t.Error("the short entry was lost")
	}
	if !hits(longKey(0), []int32{0}) || !hits(longKey(n-1), []int32{int32(n - 1)}) {
		t.Error("a spilled-key entry was lost")
	}
	if !hits(shortKey(0), manyRanks(0)) || !hits(shortKey(m-1), manyRanks(m-1)) {
		t.Error("a spilled-rank entry was lost")
	}
}

// TestPieceCacheEviction drives enough distinct pieces through a fresh
// tokenizer to overflow the spill arenas and the entry cap: wholesale
// resets must show up in the eviction counter, hits+misses must still
// reconcile to pieces, and the output must stay byte-identical to the
// reference.
func TestPieceCacheEviction(t *testing.T) {
	tok, err := Compile(testTok.Vocab(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 16000 distinct 48-byte words: 768 KB of spilled keys against the
	// 16 KiB key arena, so most of them stay uncached. Then 60000
	// distinct 4-letter words, short pieces that pass the entry cap.
	input := distinctWords(16000, 48)
	for i := 0; i < 60000; i++ {
		input = append(input, byte('a'+i%26), byte('a'+i/26%26), byte('a'+i/676%26), byte('a'+i/17576), ' ')
	}
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
		t.Fatalf("no evictions despite cap-overflowing distinct-piece traffic (hits %d misses %d pieces %d)", hits, misses, pieces)
	}
	distinct := map[string]bool{}
	for _, w := range bytes.Fields(input) {
		distinct[string(w)] = true
	}
	if misses < uint64(len(distinct)) {
		t.Fatalf("misses %d < %d distinct multi-byte words", misses, len(distinct))
	}
	if hits == 0 {
		t.Fatal("no hits: the single-byte separators alone should hit")
	}
	if fallbacks > pieces {
		t.Fatalf("fallbacks %d > pieces %d", fallbacks, pieces)
	}
}
