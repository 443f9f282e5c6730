package bpe

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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
// the piece cache is a pure speedup, so disabling it must not change a
// single emitted token.
func TestCompileAblations(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"no-cache", Options{DisablePieceCache: true}},
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
// 32 bytes, half a cache line, a set of 8 ways in 256 bytes, and slots
// plus spill arenas stay within 2.25 MiB per stream, with the
// compaction bitmaps beside them. It also pins the constants to the
// slot's field widths, so a resize that would truncate an offset or a
// length, or let a length reach the reference bit, fails here rather
// than returning wrong ranks.
func TestPieceCacheFootprint(t *testing.T) {
	slot := int(unsafe.Sizeof(cacheSlot{}))
	if slot != 32 {
		t.Errorf("cacheSlot is %d bytes, want 32", slot)
	}
	if set := int(unsafe.Sizeof(cacheSet{})); set != 256 {
		t.Errorf("a set is %d bytes, want 256", set)
	}
	if cacheSets*cacheWays != cacheSlots {
		t.Errorf("%d sets of %d ways != %d slots", cacheSets, cacheWays, cacheSlots)
	}
	if maxCachedPieceLen >= cacheRefBit {
		t.Errorf("maxCachedPieceLen %d reaches the reference bit %#x of keyLen", maxCachedPieceLen, cacheRefBit)
	}
	if maxCachedPieceLen > 255 {
		t.Errorf("maxCachedPieceLen %d does not fit the uint8 rankLen", maxCachedPieceLen)
	}
	if cacheRankSpillLen > 1<<16 {
		t.Errorf("cacheRankSpillLen %d overflows the uint16 rankOff and live counts", cacheRankSpillLen)
	}
	if cacheInlineKey < 4 || cacheKeySpillBytes > 1<<32 {
		t.Errorf("a spilled key's offset (arena %d bytes) does not fit key[:4] of %d inline bytes",
			cacheKeySpillBytes, cacheInlineKey)
	}
	if cacheSlots%64 != 0 || cacheKeySpillBytes%64 != 0 || cacheRankSpillLen%64 != 0 {
		t.Error("the slot count and arena sizes must be whole bitmap words")
	}
	c := newPieceCache()
	if len(c.hands) != cacheSets || cacheWays > 256 {
		t.Errorf("%d clock hands of uint8 for %d sets of %d ways", len(c.hands), cacheSets, cacheWays)
	}
	total := len(c.slots)*slot + cap(c.keys) + cap(c.ranks)*int(unsafe.Sizeof(int32(0)))
	if total > 2304<<10 {
		t.Errorf("piece cache is %d bytes per stream, over 2.25 MiB", total)
	}
	// One bit per slot and per arena element, and one uint16 live count
	// per arena bitmap word: 20 KiB.
	scratch := 8*(len(c.spills)+len(c.liveKeys)+len(c.liveRanks)) + 2*(len(c.keysBefore)+len(c.rankBefore))
	want := (cacheSlots+cacheKeySpillBytes+cacheRankSpillLen)/8 + 2*(cacheKeySpillBytes+cacheRankSpillLen)/64
	if scratch != want || scratch > 20<<10 {
		t.Errorf("compaction scratch is %d bytes, want %d (at most 20 KiB)", scratch, want)
	}
}

// TestPieceCacheSpillFull fills each spill arena with live entries and
// checks that a piece which would overflow it is left out without
// evicting anything: nothing is dead, so nothing is compacted, and the
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
	used := len(c.ranks)
	insert(shortKey(m), manyRanks(m))
	if hits(shortKey(m), manyRanks(m)) || len(c.ranks) != used || c.uncached != 2 {
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
// tokenizer to overflow the spill arenas and many sets: every
// replaced entry must show up in the eviction counter, hits+misses
// must still reconcile to pieces, and the output must stay
// byte-identical to the reference. On the cache itself, each insert of
// a new inline piece either takes a free way or evicts exactly one
// entry.
func TestPieceCacheEviction(t *testing.T) {
	tok, err := Compile(testTok.Vocab(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 16000 distinct 48-byte words: 768 KB of spilled keys against the
	// 16 KiB key arena, so most of them stay uncached. Then 60000
	// distinct 4-letter words, short pieces that fill the slots to 92%
	// on average, and many sets past their 8 ways.
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
		t.Fatalf("no evictions despite set-overflowing distinct-piece traffic (hits %d misses %d pieces %d)", hits, misses, pieces)
	}
	if evictions > misses {
		t.Fatalf("evictions %d > misses %d: an entry is evicted at most once per insert", evictions, misses)
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

	c := newPieceCache()
	const n = cacheSlots + cacheSlots/2
	var evicted uint64
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("%08x", i))
		evicted += c.insert(key, pieceHash(key), []int32{int32(i)})
	}
	occupied := 0
	for i := range c.slots {
		if c.slots[i].keyLen != 0 {
			occupied++
		}
	}
	if evicted+uint64(occupied) != n {
		t.Errorf("%d inserts: %d evicted + %d cached, want each insert to evict at most one entry and none lost", n, evicted, occupied)
	}
}

// TestPieceCacheKeepsHotSet mixes a hot set of pieces, looked up four
// times per cold piece, with more distinct cold pieces than the cache
// has slots. Past warm-up the hot pieces must keep hitting: a cold
// piece takes a way whose reference bit is clear, and a hot piece's bit
// is set again before its set's hand comes back to it. (The wholesale
// reset this cache replaced missed 1.6% of these lookups.)
func TestPieceCacheKeepsHotSet(t *testing.T) {
	const hot, cold, perCold = 4096, 2 * cacheSlots, 4
	c := newPieceCache()
	key := func(kind byte, i int) []byte { return []byte(fmt.Sprintf("%c%07d", kind, i)) }
	hotKeys := make([][]byte, hot)
	for i := range hotKeys {
		hotKeys[i] = key('h', i)
	}
	// get looks piece i up, inserting it on a miss, and reports a hit.
	get := func(piece []byte, i int) bool {
		h := pieceHash(piece)
		if head, tail := c.lookup(piece, h); head != nil {
			if len(head) != 1 || head[0] != int32(i) || tail != nil {
				t.Fatalf("%q hit ranks %v %v, want [%d]", piece, head, tail, i)
			}
			return true
		}
		c.insert(piece, h, []int32{int32(i)})
		return false
	}
	var lookups, misses int
	for i := 0; i < cold; i++ {
		get(key('c', i), i)
		for j := 0; j < perCold; j++ {
			n := i*perCold + j
			hit := get(hotKeys[n%hot], n%hot)
			if n >= 2*hot {
				lookups++
				if !hit {
					misses++
				}
			}
		}
	}
	t.Logf("hot set: %d misses in %d lookups after warm-up", misses, lookups)
	if misses*1000 > lookups {
		t.Errorf("hot pieces missed %d of %d lookups after warm-up, want under 0.1%%", misses, lookups)
	}
}

// churnPieces returns the distinct pieces cacheChurn walks: churnHot
// long ones, churnCold-churnHot short ones, then n long ones. A short
// piece is a space and 15 lowercase letters, a key that fits a slot; a
// long one is a space and 16 to 63 letters, a key that spills.
func churnPieces(rng *rand.Rand, n int) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for len(out) < churnCold+n {
		l := 15
		if len(out) < churnHot || len(out) >= churnCold {
			l = 16 + rng.Intn(48)
		}
		p := []byte{' '}
		for ; l > 0; l-- {
			p = append(p, byte('a'+rng.Intn(26)))
		}
		if !seen[string(p)] {
			seen[string(p)] = true
			out = append(out, p)
		}
	}
	return out
}

// The pieces of a cacheChurn: churnHot hot pieces, then churn pieces
// up to churnCold, then cold ones.
const churnHot, churnCold = 32, 2032

// cacheChurn drives lookups through a cache, inserting each miss. A
// quarter of the picks fall on the hot pieces, a quarter on the churn
// pieces and half on the next cold piece in turn. The hot and churn
// pieces have their hashes narrowed to 8 sets, whose 64 ways the churn
// pieces, with inline keys, pass through: given encodings that spill,
// they fill the rank arena with dead ranks, and it compacts. The cold
// pieces spill their keys and spread over every set: they fill the key
// arena with live keys, so pieces are left out and the arenas swept.
// The hot pieces spill their keys too, amid the cold ones, so a sweep
// keeps them and the compaction moves them. step allocates nothing,
// and counts the compactions and sweeps it sees: only a compaction
// shortens an arena, and only a sweep lowers the left-out count.
type cacheChurn struct {
	c        *pieceCache
	pieces   [][]byte // from churnPieces
	ranks    [][]int32
	x        uint64
	nextCold int

	compactions, sweeps int // sweeps not counted as compactions
}

func newCacheChurn(pieces [][]byte, ranks [][]int32, seed uint64) *cacheChurn {
	return &cacheChurn{c: newPieceCache(), pieces: pieces, ranks: ranks, x: seed}
}

// hash is the hash the cache is given for piece i.
func (ch *cacheChurn) hash(i int) uint32 {
	if i < churnCold {
		return pieceHash(ch.pieces[i]) &^ (cacheSets - 8)
	}
	return pieceHash(ch.pieces[i])
}

// step looks one piece up, inserting it on a miss, and returns its
// index and the ranks a hit found (nil head on a miss).
func (ch *cacheChurn) step() (i int, head, tail []int32) {
	ch.x ^= ch.x << 13
	ch.x ^= ch.x >> 7
	ch.x ^= ch.x << 17
	switch r := int(ch.x >> 2); ch.x % 4 {
	case 0:
		i = r % churnHot
	case 1:
		i = churnHot + r%(churnCold-churnHot)
	default:
		i = churnCold + ch.nextCold
		ch.nextCold = (ch.nextCold + 1) % (len(ch.pieces) - churnCold)
	}
	p, h, c := ch.pieces[i], ch.hash(i), ch.c
	if head, tail = c.lookup(p, h); head == nil {
		keys, ranks, uncached := len(c.keys), len(c.ranks), c.uncached
		c.insert(p, h, ch.ranks[i])
		switch {
		case c.uncached < uncached:
			ch.sweeps++
		case len(c.keys) < keys || len(c.ranks) < ranks:
			ch.compactions++
		}
	}
	return i, head, tail
}

// cacheInvariants checks a cache's bookkeeping: the spill bitmap marks
// exactly the slots that spill, no two spilled ranges overlap, and the
// live and dead elements of each arena add up to its length.
func cacheInvariants(c *pieceCache) error {
	keyUse := make([]int, len(c.keys))
	rankUse := make([]int, len(c.ranks))
	liveKeys, liveRanks := 0, 0
	for i := range c.slots {
		s := &c.slots[i]
		marked := c.spills[i/64]&(1<<(i%64)) != 0
		if s.keyLen == 0 {
			if marked {
				return fmt.Errorf("free slot %d marked as spilling", i)
			}
			continue
		}
		ko, nk, ro, nr := spilled(s)
		if marked != (nk > 0 || nr > 0) {
			return fmt.Errorf("slot %d spills %d key bytes and %d ranks, marked %v", i, nk, nr, marked)
		}
		if ko+nk > len(c.keys) || ro+nr > len(c.ranks) {
			return fmt.Errorf("slot %d spills past an arena's end", i)
		}
		for j := ko; j < ko+nk; j++ {
			keyUse[j]++
		}
		for j := ro; j < ro+nr; j++ {
			rankUse[j]++
		}
		liveKeys += nk
		liveRanks += nr
	}
	for j, n := range keyUse {
		if n > 1 {
			return fmt.Errorf("key arena byte %d is used by %d slots", j, n)
		}
	}
	for j, n := range rankUse {
		if n > 1 {
			return fmt.Errorf("rank arena element %d is used by %d slots", j, n)
		}
	}
	if liveKeys+c.deadKeys != len(c.keys) || liveRanks+c.deadRanks != len(c.ranks) {
		return fmt.Errorf("keys: %d live + %d dead != %d; ranks: %d live + %d dead != %d",
			liveKeys, c.deadKeys, len(c.keys), liveRanks, c.deadRanks, len(c.ranks))
	}
	return nil
}

// TestPieceCacheCompaction churns spilling pieces, encoded by
// Vocab.Encode, through a cache until the arenas have been compacted
// and swept several times. Every hit must return the piece's recorded
// insert, which is its Vocab.Encode encoding, the bookkeeping must
// hold after every compaction, and at the end every entry held must be
// found by its piece.
func TestPieceCacheCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	v := testTok.Vocab()
	pieces := churnPieces(rng, 8000)
	var ranks [][]int32
	for _, p := range pieces {
		var r []int32
		for _, rank := range v.Encode(nil, p) {
			r = append(r, int32(rank))
		}
		ranks = append(ranks, r)
	}
	ch := newCacheChurn(pieces, ranks, 88172645463325252)
	c := ch.c
	hits, seen := 0, 0
	for op := 0; op < 1000000 && (ch.sweeps < 3 || ch.compactions < 3); op++ {
		i, head, tail := ch.step()
		if head != nil {
			hits++
			if got := append(head[:len(head):len(head)], tail...); !slices.Equal(got, ch.ranks[i]) {
				t.Fatalf("op %d: %q hit %v, inserted %v", op, ch.pieces[i], got, ch.ranks[i])
			}
		}
		if n := ch.compactions + ch.sweeps; n != seen {
			seen = n
			if err := cacheInvariants(c); err != nil {
				t.Fatalf("after compaction %d (op %d): %v", seen, op, err)
			}
		}
	}
	t.Logf("%d hits, %d compactions, %d sweeps", hits, ch.compactions, ch.sweeps)
	if ch.sweeps < 3 || ch.compactions < 3 {
		t.Fatalf("%d compactions, %d sweeps: the traffic must trigger at least 3 of each", ch.compactions, ch.sweeps)
	}
	if err := cacheInvariants(c); err != nil {
		t.Fatal(err)
	}
	held, found := 0, 0
	for i := range c.slots {
		if c.slots[i].keyLen != 0 {
			held++
		}
	}
	for i, p := range ch.pieces {
		head, tail := c.lookup(p, ch.hash(i))
		if head == nil {
			continue
		}
		found++
		if got := append(head[:len(head):len(head)], tail...); !slices.Equal(got, ch.ranks[i]) {
			t.Fatalf("%q cached as %v, inserted %v", p, got, ch.ranks[i])
		}
	}
	if found != held {
		t.Errorf("%d entries held, %d of them found by their pieces", held, found)
	}
}

// TestPieceCacheSweepZeroAllocs gates compaction and the sweep at 0
// allocs/op: the measured traffic compacts the arenas and sweeps them.
func TestPieceCacheSweepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(62))
	pieces := churnPieces(rng, 8000)
	var ranks [][]int32
	for i := range pieces {
		r := make([]int32, 1+i%maxCachedPieceLen)
		for j := range r {
			r[j] = int32(i + j)
		}
		ranks = append(ranks, r)
	}
	ch := newCacheChurn(pieces, ranks, 2463534242)
	for ch.sweeps == 0 {
		ch.step()
	}
	compactions, sweeps := ch.compactions, ch.sweeps
	if allocs := testing.AllocsPerRun(4, func() {
		for op := 0; op < 50000; op++ {
			ch.step()
		}
	}); allocs != 0 {
		t.Errorf("cache churn allocates %.1f per run, want 0", allocs)
	}
	if ch.sweeps == sweeps || ch.compactions == compactions {
		t.Errorf("measured traffic ran %d compactions and %d sweeps, want at least one of each",
			ch.compactions-compactions, ch.sweeps-sweeps)
	}
}

// FuzzPieceCache drives random insert and lookup sequences of 2- to
// 64-byte pieces and 1 to 64 ranks through a cache, against a map of
// the last ranks inserted for each piece: a lookup must miss or return
// exactly those. narrow confines the hashes to fewer sets, down to one,
// so ways are replaced and the arenas compact; a hash kept equal across
// pieces exercises the key comparison.
func FuzzPieceCache(f *testing.F) {
	f.Add(uint64(1), uint16(5000), uint16(300), uint8(0))
	f.Add(uint64(2), uint16(20000), uint16(2000), uint8(6))
	f.Add(uint64(3), uint16(20000), uint16(800), uint8(13))
	f.Add(uint64(4), uint16(40000), uint16(4000), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, ops, distinct uint16, narrow uint8) {
		rng := rand.New(rand.NewSource(int64(seed)))
		pieces := make([][]byte, 1+int(distinct)%4096)
		for i := range pieces {
			p := make([]byte, 2+rng.Intn(maxCachedPieceLen-1))
			for j := range p {
				p[j] = "ab\x00\xff"[rng.Intn(4)]
			}
			pieces[i] = p
		}
		hash := func(p []byte) uint32 {
			h := pieceHash(p)
			switch {
			case narrow >= 20:
				return uint32(narrow) // one hash: every piece in one set
			case narrow > 0:
				return h &^ (cacheSets - 1<<(narrow%13))
			}
			return h
		}
		c := newPieceCache()
		model := map[string][]int32{}
		check := func(p []byte) {
			head, tail := c.lookup(p, hash(p))
			if head == nil {
				return
			}
			want, ok := model[string(p)]
			if got := append(head[:len(head):len(head)], tail...); !ok || !slices.Equal(got, want) {
				t.Fatalf("lookup %q = %v, last inserted %v (inserted: %v)", p, got, want, ok)
			}
		}
		for op := 0; op < 2*int(ops); op++ {
			p := pieces[rng.Intn(len(pieces))]
			if rng.Intn(3) > 0 {
				check(p)
				continue
			}
			r := make([]int32, 1+rng.Intn(64))
			for j := range r {
				r[j] = rng.Int31()
			}
			model[string(p)] = r
			c.insert(p, hash(p), r)
		}
		if err := cacheInvariants(c); err != nil {
			t.Fatal(err)
		}
		for _, p := range pieces {
			check(p)
		}
	})
}
