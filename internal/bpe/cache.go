package bpe

// The piece-encoding cache. Prompt-shaped traffic is overwhelmingly
// repeated pretokenizer pieces (Zipfian words, the same punctuation and
// indentation over and over), but without a memo the streaming encoder
// pays the backtracking search — vocab-DFA scans plus mutex-guarded
// local-validity lookups, or the merge-loop safety net — for every
// occurrence. The cache memoizes the certified encoding per distinct
// piece so each one is computed once: hits emit straight from the
// cached ranks, bypassing the search entirely. Because the cache stores
// the final certified output, a hit is byte-identical to a
// recomputation by construction — the differential and fuzz pins are
// unchanged.
//
// The structure is an open-addressed hash table backed entirely by
// fixed-capacity arenas: one byte arena for keys, one int32 arena for
// rank sequences, one entry array, one power-of-two slot table. Nothing
// is allocated per entry, so the warm serving loop stays at 0 allocs/op
// (CI-gated). When any arena fills, the whole cache is reset wholesale
// — entries are counted as evictions — which is both allocation-free
// and O(slots), and on Zipfian traffic the hot pieces re-enter within a
// few hundred pieces. Each Stream owns one cache; pooled streams keep
// theirs across Release/Acquire, so a tokenizer's pool doubles as a
// warm-cache pool.

const (
	// cacheSlotBits sizes the slot table (1<<cacheSlotBits slots);
	// cacheMaxEntries caps entries at a 3/4 load factor so probes stay
	// short. Sized for the distinct-piece working set of prompt-shaped
	// traffic: ~28k distinct multi-byte pieces per MiB of Zipfian text,
	// so the arenas must hold several tens of thousands of entries or
	// the wholesale resets thrash (an undersized cache measured ~58%
	// hits where this sizing reaches the workload's ~85% cold-pass
	// ceiling). All-in, a cache costs ~2.2 MiB per stream — fixed,
	// allocated once, and recycled by the stream pool.
	cacheSlotBits   = 16
	cacheSlots      = 1 << cacheSlotBits
	cacheMaxEntries = cacheSlots * 3 / 4
	// cacheKeyArenaBytes backs the keys; with prompt-piece lengths
	// (mostly 2–12 bytes) it fills at about the same time as the entry
	// cap.
	cacheKeyArenaBytes = 512 << 10
	// cacheRankArenaLen backs the cached encodings (≤ 1 rank per key
	// byte, typically far fewer).
	cacheRankArenaLen = 192 << 10
	// maxCachedPieceLen bounds cacheable pieces: longer ones (rare —
	// giant number or whitespace runs) are encoded directly and counted
	// as misses, so one outlier cannot flush the arena.
	maxCachedPieceLen = 64
)

// cacheEntry is one memoized piece: its key bytes and certified ranks,
// both as arena spans, plus the full hash for cheap probe rejection.
type cacheEntry struct {
	hash    uint32
	keyOff  int32
	rankOff int32
	keyLen  uint16
	rankLen uint16
}

// pieceCache is the per-stream memo table. Zero value is invalid; use
// newPieceCache.
type pieceCache struct {
	slots   []int32 // slot -> entry index + 1; 0 = empty
	entries []cacheEntry
	keys    []byte
	ranks   []int32
}

func newPieceCache() *pieceCache {
	return &pieceCache{
		slots:   make([]int32, cacheSlots),
		entries: make([]cacheEntry, 0, cacheMaxEntries),
		keys:    make([]byte, 0, cacheKeyArenaBytes),
		ranks:   make([]int32, 0, cacheRankArenaLen),
	}
}

// pieceHash is FNV-1a over the piece bytes.
func pieceHash(p []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range p {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// lookup returns the cached ranks for piece, or nil. The returned slice
// aliases the rank arena and is valid until the next insert.
func (c *pieceCache) lookup(piece []byte, h uint32) []int32 {
	mask := uint32(cacheSlots - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		ei := c.slots[i]
		if ei == 0 {
			return nil
		}
		e := &c.entries[ei-1]
		if e.hash == h && int(e.keyLen) == len(piece) &&
			string(c.keys[e.keyOff:e.keyOff+int32(e.keyLen)]) == string(piece) {
			return c.ranks[e.rankOff : e.rankOff+int32(e.rankLen)]
		}
	}
}

// insert memoizes piece -> ranks, resetting the cache first if any
// arena is out of room, and returns how many entries that reset
// evicted. piece must be at most maxCachedPieceLen bytes.
func (c *pieceCache) insert(piece []byte, h uint32, ranks []int32) (evicted uint64) {
	if len(c.entries) == cacheMaxEntries ||
		len(c.keys)+len(piece) > cacheKeyArenaBytes ||
		len(c.ranks)+len(ranks) > cacheRankArenaLen {
		evicted = uint64(len(c.entries))
		c.reset()
	}
	keyOff, rankOff := len(c.keys), len(c.ranks)
	c.keys = append(c.keys, piece...)
	c.ranks = append(c.ranks, ranks...)
	c.entries = append(c.entries, cacheEntry{
		hash:    h,
		keyOff:  int32(keyOff),
		rankOff: int32(rankOff),
		keyLen:  uint16(len(piece)),
		rankLen: uint16(len(ranks)),
	})
	mask := uint32(cacheSlots - 1)
	i := h & mask
	for c.slots[i] != 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = int32(len(c.entries))
	return evicted
}

// reset discards every entry and clears the arenas in place — no
// allocation, O(slots).
func (c *pieceCache) reset() {
	clear(c.slots)
	c.entries = c.entries[:0]
	c.keys = c.keys[:0]
	c.ranks = c.ranks[:0]
}
