package bpe

import "encoding/binary"

// The piece-encoding cache. Prompt-shaped traffic is overwhelmingly
// repeated pretokenizer pieces (Zipfian words, the same punctuation and
// indentation over and over), but without a memo the streaming encoder
// pays the backtracking search — vocab-DFA scans plus merge-tree
// validity walks, or the merge-loop safety net — for every occurrence.
// The cache memoizes the certified encoding per distinct piece so each
// one is computed once: hits emit straight from the cached ranks,
// bypassing the search entirely. Because the cache stores the final
// certified output, a hit is byte-identical to a recomputation by
// construction — the differential and fuzz pins are unchanged.
//
// The structure is one open-addressed array of 32-byte slots. A slot
// holds the piece's hash and length, up to cacheInlineKey key bytes and
// the first cacheInlineRanks ranks inline, so a hit on a typical piece
// (a short word encoding to one or two tokens) reads one slot and
// nothing else. Longer keys, and the ranks past the inline ones, spill
// to two small fixed-capacity arenas, the slot keeping their offsets.
// Nothing is allocated per entry, so the warm serving loop stays at 0
// allocs/op (CI-gated). When the entry cap is reached, the whole cache
// is reset wholesale — entries are counted as evictions — which is both
// allocation-free and O(slots), and on Zipfian traffic the hot pieces
// re-enter within a few hundred pieces. A piece that would overflow a
// spill arena is not cached: the entries already in the cache, hot
// short pieces among them, stay. It still counts toward the entry cap,
// so a cache whose arenas have filled turns over when the traffic
// moves on, and the arenas empty at that reset.
// Each Stream owns one cache; pooled streams keep theirs across
// Release/Acquire, so a tokenizer's pool doubles as a warm-cache pool.

const (
	// cacheSlotBits sizes the slot table (1<<cacheSlotBits slots);
	// cacheMaxEntries caps entries at a 3/4 load factor so probes stay
	// short. Sized for the distinct-piece working set of prompt-shaped
	// traffic: ~28k distinct multi-byte pieces per MiB of Zipfian text,
	// so the cache must hold several tens of thousands of entries or
	// the wholesale resets thrash (an undersized cache measured ~58%
	// hits where this sizing reaches the workload's ~85% cold-pass
	// ceiling). All-in, a cache costs 2.25 MiB per stream — fixed,
	// allocated once, and recycled by the stream pool.
	cacheSlotBits   = 16
	cacheSlots      = 1 << cacheSlotBits
	cacheMaxEntries = cacheSlots * 3 / 4
	// cacheInlineKey and cacheInlineRanks are what a slot holds without
	// spilling: prompt pieces are mostly 2–12 bytes and encode to one or
	// two tokens.
	cacheInlineKey   = 16
	cacheInlineRanks = 2
	// cacheKeySpillBytes backs keys longer than cacheInlineKey, and
	// cacheRankSpillLen the ranks of an encoding past its first
	// cacheInlineRanks. The arenas take the 256 KiB the 2 MiB slot
	// array leaves of the cache's 2.25 MiB, nearly all of it for ranks:
	// of the generated prompt, log, JSON, CSV, XML, YAML, SQL and zone
	// traffic only FASTA lines spill keys, while a 1k-merge vocabulary
	// spills up to ~75k ranks per 4 MiB of log lines.
	cacheKeySpillBytes = 16 << 10
	cacheRankSpillLen  = 60 << 10
	// maxCachedPieceLen bounds cacheable pieces: longer ones (rare —
	// giant number or whitespace runs) are encoded directly and counted
	// as misses, so one outlier cannot fill a spill arena.
	maxCachedPieceLen = 64
)

// cacheSlot is one memoized piece. keyLen 0 marks a free slot (cached
// pieces are at least 2 bytes). A key longer than cacheInlineKey keeps
// its key-arena offset in key[:4]; an encoding longer than
// cacheInlineRanks keeps its first ranks in ranks and the rest at
// rankOff in the rank arena. The field widths bound the constants
// (TestPieceCacheFootprint checks them): keyLen and rankLen need
// maxCachedPieceLen ≤ 255 (an encoding has at most one rank per byte),
// rankOff needs cacheRankSpillLen ≤ 1<<16, and the key offset needs
// cacheInlineKey ≥ 4 and cacheKeySpillBytes ≤ 1<<32.
type cacheSlot struct {
	hash    uint32
	keyLen  uint8
	rankLen uint8
	rankOff uint16
	key     [cacheInlineKey]byte
	ranks   [cacheInlineRanks]int32
}

// pieceCache is the per-stream memo table. Zero value is invalid; use
// newPieceCache.
type pieceCache struct {
	slots    []cacheSlot
	entries  int
	uncached int     // inserts left out since the last reset, arenas full
	keys     []byte  // spilled keys
	ranks    []int32 // spilled encodings
}

func newPieceCache() *pieceCache {
	return &pieceCache{
		slots: make([]cacheSlot, cacheSlots),
		keys:  make([]byte, 0, cacheKeySpillBytes),
		ranks: make([]int32, 0, cacheRankSpillLen),
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

// lookup returns the cached ranks for piece as the inline head and the
// spilled tail (nil unless the encoding spilled), or a nil head on a
// miss. Both alias the cache and are valid until the next insert.
func (c *pieceCache) lookup(piece []byte, h uint32) (head, tail []int32) {
	mask := uint32(cacheSlots - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.keyLen == 0 {
			return nil, nil
		}
		if s.hash != h || int(s.keyLen) != len(piece) {
			continue
		}
		if len(piece) <= cacheInlineKey {
			if string(s.key[:len(piece)]) != string(piece) {
				continue
			}
		} else if off := binary.LittleEndian.Uint32(s.key[:]); string(c.keys[off:off+uint32(len(piece))]) != string(piece) {
			continue
		}
		if n := int(s.rankLen); n > cacheInlineRanks {
			off := int(s.rankOff)
			return s.ranks[:], c.ranks[off : off+n-cacheInlineRanks]
		}
		return s.ranks[:s.rankLen], nil
	}
}

// insert memoizes piece -> ranks, resetting the cache first if it is
// full, and returns how many entries that reset evicted. A piece that
// would overflow a spill arena is left out but counts toward the entry
// cap. piece must be 2 to maxCachedPieceLen bytes.
func (c *pieceCache) insert(piece []byte, h uint32, ranks []int32) (evicted uint64) {
	spillKey, spillRanks := len(piece) > cacheInlineKey, len(ranks) > cacheInlineRanks
	if spillKey && len(c.keys)+len(piece) > cacheKeySpillBytes ||
		spillRanks && len(c.ranks)+len(ranks)-cacheInlineRanks > cacheRankSpillLen {
		c.uncached++
		return 0
	}
	if c.entries+c.uncached >= cacheMaxEntries {
		evicted = uint64(c.entries)
		c.reset()
	}
	mask := uint32(cacheSlots - 1)
	i := h & mask
	for c.slots[i].keyLen != 0 {
		i = (i + 1) & mask
	}
	s := &c.slots[i]
	s.hash, s.keyLen, s.rankLen = h, uint8(len(piece)), uint8(len(ranks))
	if spillKey {
		binary.LittleEndian.PutUint32(s.key[:], uint32(len(c.keys)))
		c.keys = append(c.keys, piece...)
	} else {
		copy(s.key[:], piece)
	}
	copy(s.ranks[:], ranks)
	if spillRanks {
		s.rankOff = uint16(len(c.ranks))
		c.ranks = append(c.ranks, ranks[cacheInlineRanks:]...)
	}
	c.entries++
	return evicted
}

// reset discards every entry and clears the arenas in place — no
// allocation, O(slots).
func (c *pieceCache) reset() {
	clear(c.slots)
	c.entries, c.uncached = 0, 0
	c.keys = c.keys[:0]
	c.ranks = c.ranks[:0]
}
