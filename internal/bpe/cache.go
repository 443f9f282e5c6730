package bpe

import (
	"encoding/binary"
	"math/bits"
)

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
// The structure is an array of 32-byte slots grouped into 8-way sets
// of 256 bytes, a set chosen by the low bits of the piece hash. A slot
// holds the piece's hash and length, up to cacheInlineKey key bytes and
// the first cacheInlineRanks ranks inline, so a hit on a typical piece
// (a short word encoding to one or two tokens) reads one set and
// nothing else. Longer keys, and the ranks past the inline ones, spill
// to two small fixed-capacity arenas, the slot keeping their offsets.
// Nothing is allocated per entry, so the warm serving loop stays at 0
// allocs/op (CI-gated).
//
// Replacement is second chance (a clock) within a set: a hit sets the
// slot's reference bit, and an insert into a full set takes the first
// way from the set's hand whose bit is clear, clearing the bits it
// passes over. The hand stays on the way it filled, so a new entry is
// on probation: the next insert into the set replaces it unless it has
// been hit since, and only then does the hand move on. Each replaced
// entry counts as one eviction. Pieces seen once thus churn through
// one way, and a piece hit once per turn of the hand stays: past the
// slot count, a hot set survives any amount of cold traffic. (Scanning
// from way 0 with no hand strands the hot pieces inserted first into
// an empty set in the ways every scan clears first, and loses them
// faster than a wholesale reset would; a hand that moves past the way
// it filled turns a set that one pass over a document overflows into
// FIFO, which misses every piece of that set on the next pass.)
//
// A replaced or dropped entry leaves dead bytes in the spill arenas.
// When an insert would overflow an arena of which at least half is
// dead, both arenas are mark-compacted in place: the live ranges are
// marked in bitmaps, found through a bitmap of the slots that spill,
// and each offset is renumbered by a prefix popcount. A piece that
// still does not fit is left out: the entries already cached, hot
// short pieces among them, stay. Once cacheSweepAfter pieces have been
// left out, a sweep drops every spilling entry whose reference bit is
// clear (and clears the bits of those it keeps) before compacting, so
// an arena filled with live entries still turns over when the traffic
// moves on.
//
// Each Stream owns one cache; pooled streams keep theirs across
// Release/Acquire, so a tokenizer's pool doubles as a warm-cache pool.

const (
	// cacheSlotBits sizes the slot table (1<<cacheSlotBits slots), in
	// sets of cacheWays. Sized for the distinct-piece working set of
	// prompt-shaped traffic: ~28k distinct multi-byte pieces per MiB of
	// Zipfian text, so the cache must hold several tens of thousands of
	// entries. All-in, a cache costs 2.25 MiB per stream plus 28 KiB of
	// clock hands and compaction bitmaps — fixed, allocated once, and
	// recycled by the stream pool.
	cacheSlotBits = 16
	cacheSlots    = 1 << cacheSlotBits
	cacheWays     = 8
	cacheSets     = cacheSlots / cacheWays
	// cacheRefBit is the reference bit, kept in the high bit of a slot's
	// keyLen; maxCachedPieceLen stays below it.
	cacheRefBit = 0x80
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
	// cacheSweepAfter is how many left-out pieces trigger a sweep. On
	// cold 4 MiB streams of the generated formats, sweeping after 4,096
	// left-outs cost 1k-merge FASTA 1.6 points of hit rate (entries its
	// later lines hit were dropped); after 32,768, no input and
	// vocabulary reads more than 0.02 points below the wholesale reset
	// (at 49,152 entries) that this replacement scheme replaced.
	cacheSweepAfter = 32768
	// maxCachedPieceLen bounds cacheable pieces: longer ones (rare —
	// giant number or whitespace runs) are encoded directly and counted
	// as misses, so one outlier cannot fill a spill arena.
	maxCachedPieceLen = 64
)

// cacheSlot is one memoized piece. keyLen 0 marks a free slot (cached
// pieces are at least 2 bytes); its high bit is the reference bit. A
// key longer than cacheInlineKey keeps its key-arena offset in key[:4];
// an encoding longer than cacheInlineRanks keeps its first ranks in
// ranks and the rest at rankOff in the rank arena. The field widths
// bound the constants (TestPieceCacheFootprint checks them): keyLen
// needs maxCachedPieceLen < cacheRefBit, rankLen needs it ≤ 255 (an
// encoding has at most one rank per byte), rankOff needs
// cacheRankSpillLen ≤ 1<<16, and the key offset needs cacheInlineKey ≥
// 4 and cacheKeySpillBytes ≤ 1<<32.
type cacheSlot struct {
	hash    uint32
	keyLen  uint8
	rankLen uint8
	rankOff uint16
	key     [cacheInlineKey]byte
	ranks   [cacheInlineRanks]int32
}

// cacheSet is one set's ways, 256 contiguous bytes of the slot array.
type cacheSet = [cacheWays]cacheSlot

// pieceCache is the per-stream memo table. Zero value is invalid; use
// newPieceCache.
type pieceCache struct {
	slots []cacheSlot
	hands []uint8 // per set, the way its next replacement scan starts at
	keys  []byte  // spilled keys
	ranks []int32 // spilled encodings

	deadKeys, deadRanks int // arena elements no live slot references
	uncached            int // pieces left out since the last sweep

	// For compaction: spills has one bit per slot that spills, kept
	// current so a compaction visits only those slots; the scratch has
	// one bit per live arena element and the live count before each of
	// its words.
	spills                 []uint64
	liveKeys, liveRanks    []uint64
	keysBefore, rankBefore []uint16
}

func newPieceCache() *pieceCache {
	return &pieceCache{
		slots:      make([]cacheSlot, cacheSlots),
		hands:      make([]uint8, cacheSets),
		keys:       make([]byte, 0, cacheKeySpillBytes),
		ranks:      make([]int32, 0, cacheRankSpillLen),
		spills:     make([]uint64, cacheSlots/64),
		liveKeys:   make([]uint64, cacheKeySpillBytes/64),
		liveRanks:  make([]uint64, cacheRankSpillLen/64),
		keysBefore: make([]uint16, cacheKeySpillBytes/64),
		rankBefore: make([]uint16, cacheRankSpillLen/64),
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

// set returns the index of hash h's set's first slot, and the set.
func (c *pieceCache) set(h uint32) (int, *cacheSet) {
	i := int(h&(cacheSets-1)) * cacheWays
	return i, (*cacheSet)(c.slots[i:])
}

// find returns the way of set holding piece, or -1.
func (c *pieceCache) find(set *cacheSet, piece []byte, h uint32) int {
	for w := range set {
		s := &set[w]
		if s.hash != h || int(s.keyLen&^cacheRefBit) != len(piece) {
			continue
		}
		if len(piece) <= cacheInlineKey {
			if string(s.key[:len(piece)]) != string(piece) {
				continue
			}
		} else if off := binary.LittleEndian.Uint32(s.key[:]); string(c.keys[off:off+uint32(len(piece))]) != string(piece) {
			continue
		}
		return w
	}
	return -1
}

// lookup returns the cached ranks for piece as the inline head and the
// spilled tail (nil unless the encoding spilled), or a nil head on a
// miss, and marks a hit referenced. Both alias the cache and are valid
// until the next insert.
func (c *pieceCache) lookup(piece []byte, h uint32) (head, tail []int32) {
	_, set := c.set(h)
	w := c.find(set, piece, h)
	if w < 0 {
		return nil, nil
	}
	s := &set[w]
	if s.keyLen&cacheRefBit == 0 {
		s.keyLen |= cacheRefBit
	}
	if n := int(s.rankLen); n > cacheInlineRanks {
		off := int(s.rankOff)
		return s.ranks[:], c.ranks[off : off+n-cacheInlineRanks]
	}
	return s.ranks[:s.rankLen], nil
}

// insert memoizes piece -> ranks, replacing an entry already cached for
// piece, and returns how many other entries it evicted: the one its
// set gave up, and those a sweep dropped. A piece that does not fit
// the spill arenas is left out. piece must be 2 to maxCachedPieceLen
// bytes.
func (c *pieceCache) insert(piece []byte, h uint32, ranks []int32) (evicted uint64) {
	base, set := c.set(h)
	if w := c.find(set, piece, h); w >= 0 {
		c.free(base + w)
	}
	nk, nr := 0, 0
	if len(piece) > cacheInlineKey {
		nk = len(piece)
	}
	if len(ranks) > cacheInlineRanks {
		nr = len(ranks) - cacheInlineRanks
	}
	if !c.room(nk, nr) {
		if c.uncached++; c.uncached < cacheSweepAfter {
			return 0
		}
		evicted = c.compact(true)
		if !c.room(nk, nr) {
			return evicted
		}
	}
	w := c.victim(set, base/cacheWays)
	if set[w].keyLen != 0 {
		c.free(base + w)
		evicted++
	}
	s := &set[w]
	s.hash, s.keyLen, s.rankLen = h, uint8(len(piece)), uint8(len(ranks))
	if nk > 0 {
		binary.LittleEndian.PutUint32(s.key[:], uint32(len(c.keys)))
		c.keys = append(c.keys, piece...)
	} else {
		copy(s.key[:], piece)
	}
	copy(s.ranks[:], ranks)
	if nr > 0 {
		s.rankOff = uint16(len(c.ranks))
		c.ranks = append(c.ranks, ranks[cacheInlineRanks:]...)
	}
	if nk > 0 || nr > 0 {
		c.spills[(base+w)/64] |= 1 << ((base + w) % 64)
	}
	return evicted
}

// victim picks the way an insert into set si takes: a free way if
// there is one, else the first way from the set's hand whose reference
// bit is clear, clearing the bits it passes over. The hand stays on the
// way taken, so the entry inserted there goes next unless it is hit
// first.
func (c *pieceCache) victim(set *cacheSet, si int) int {
	for w := range set {
		if set[w].keyLen == 0 {
			return w
		}
	}
	for w := int(c.hands[si]); ; w = (w + 1) % cacheWays {
		if set[w].keyLen&cacheRefBit == 0 {
			c.hands[si] = uint8(w)
			return w
		}
		set[w].keyLen &^= cacheRefBit
	}
}

// room reports whether nk more key bytes and nr more ranks fit the
// arenas, compacting them first when one would overflow and at least
// half of it is dead.
func (c *pieceCache) room(nk, nr int) bool {
	keysOver := len(c.keys)+nk > cacheKeySpillBytes
	ranksOver := len(c.ranks)+nr > cacheRankSpillLen
	if keysOver && 2*c.deadKeys >= cacheKeySpillBytes || ranksOver && 2*c.deadRanks >= cacheRankSpillLen {
		c.compact(false)
		keysOver = len(c.keys)+nk > cacheKeySpillBytes
		ranksOver = len(c.ranks)+nr > cacheRankSpillLen
	}
	return !keysOver && !ranksOver
}

// spilled returns the arena ranges of s: key bytes at ko and ranks at
// ro, n of each (0 when that part is inline).
func spilled(s *cacheSlot) (ko, nk, ro, nr int) {
	if n := int(s.keyLen &^ cacheRefBit); n > cacheInlineKey {
		ko, nk = int(binary.LittleEndian.Uint32(s.key[:])), n
	}
	if n := int(s.rankLen); n > cacheInlineRanks {
		ro, nr = int(s.rankOff), n-cacheInlineRanks
	}
	return ko, nk, ro, nr
}

// free empties slot i, counting its spilled bytes dead.
func (c *pieceCache) free(i int) {
	s := &c.slots[i]
	if c.spills[i/64]&(1<<(i%64)) != 0 {
		_, nk, _, nr := spilled(s)
		c.deadKeys += nk
		c.deadRanks += nr
		c.spills[i/64] &^= 1 << (i % 64)
	}
	s.keyLen = 0
}

// compact moves the live spilled bytes of both arenas to their fronts,
// in order, and renumbers the slots' offsets. With sweep, it first
// drops each spilling entry whose reference bit is clear and clears the
// bit of each it keeps; it returns how many it dropped. It visits only
// the slots that spill and allocates nothing.
func (c *pieceCache) compact(sweep bool) (dropped uint64) {
	clear(c.liveKeys)
	clear(c.liveRanks)
	for wi, word := range c.spills {
		for ; word != 0; word &= word - 1 {
			i := wi*64 + bits.TrailingZeros64(word)
			s := &c.slots[i]
			if sweep {
				if s.keyLen&cacheRefBit == 0 {
					c.free(i)
					dropped++
					continue
				}
				s.keyLen &^= cacheRefBit
			}
			ko, nk, ro, nr := spilled(s)
			markRange(c.liveKeys, ko, nk)
			markRange(c.liveRanks, ro, nr)
		}
	}
	c.keys = compactArena(c.keys, c.liveKeys, c.keysBefore)
	c.ranks = compactArena(c.ranks, c.liveRanks, c.rankBefore)
	for wi, word := range c.spills {
		for ; word != 0; word &= word - 1 {
			s := &c.slots[wi*64+bits.TrailingZeros64(word)]
			ko, nk, ro, nr := spilled(s)
			if nk > 0 {
				binary.LittleEndian.PutUint32(s.key[:], uint32(liveBefore(c.liveKeys, c.keysBefore, ko)))
			}
			if nr > 0 {
				s.rankOff = uint16(liveBefore(c.liveRanks, c.rankBefore, ro))
			}
		}
	}
	c.deadKeys, c.deadRanks = 0, 0
	if sweep {
		c.uncached = 0
	}
	return dropped
}

// markRange sets bits [off, off+n) of bm.
func markRange(bm []uint64, off, n int) {
	for n > 0 {
		k := min(n, 64-off%64)
		bm[off/64] |= (1<<k - 1) << (off % 64)
		off += k
		n -= k
	}
}

// compactArena moves the elements of a whose bits are set in live to
// the front of a, in order, fills before[i] with the number of live
// elements before bitmap word i, and returns the shortened arena.
func compactArena[E byte | int32](a []E, live []uint64, before []uint16) []E {
	n := 0
	for wi, word := range live {
		before[wi] = uint16(n)
		for base := wi * 64; word != 0; {
			start := bits.TrailingZeros64(word)
			end := 64
			if rest := ^word >> start; rest != 0 {
				end = start + bits.TrailingZeros64(rest)
			}
			n += copy(a[n:], a[base+start:base+end])
			if end == 64 {
				break
			}
			word &^= 1<<end - 1
		}
	}
	return a[:n]
}

// liveBefore is how many elements before off are live: the new offset
// of a live element at off.
func liveBefore(live []uint64, before []uint16, off int) int {
	return int(before[off/64]) + bits.OnesCount64(live[off/64]&(1<<(off%64)-1))
}
