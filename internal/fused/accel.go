package fused

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Accel kinds: how ScanRun finds the first byte outside the class.
const (
	kindBitmap uint8 = iota // general case: 256-bit bitmap scan
	kindExits               // ≤ 4 exit bytes, not SWAR-able: memchr chain
	kindSWAR                // ≤ 4 ASCII ranges: 8 bytes per step (SWAR)
)

// swarPrefix is how many bytes a SWAR scan tests before a class with ≤ 4
// exit bytes hands the rest of its run to the memchr chain. Most runs
// end inside it; past it, memchr's vector loop outruns SWAR's 8 bytes a
// step. A longer prefix costs the long-token rows (json-longstr) more
// words per run, a shorter one sends 9–32-byte fields to the chain's
// calls (BenchmarkScanRun, hotloop).
const swarPrefix = 16

// memchrWindow is the memchr chain's first window: 512 bytes covers a
// 512-byte string in one round of calls, and bounds what an exit byte
// that is absent from the line (csv's newline) costs per field.
const memchrWindow = 512

// Byte-lane masks for the SWAR test.
const (
	lanesHigh = 0x8080808080808080 // the top bit of every byte lane
	lanesOne  = 0x0101010101010101 // 1 in every byte lane
)

// AccelInfo describes one accel class: the self-loop byte class C and
// the precomputed strategy for locating the first byte of Σ∖C.
type AccelInfo struct {
	// Class is the 256-bit bitmap of C.
	Class [4]uint64
	kind  uint8
	nx    uint8   // number of exit bytes (kindExits, kindSWAR): 0 when > 4
	ex    [4]byte // the exit bytes, when nx > 0

	// kindSWAR: C ∩ [0x00, 0x7f], or its complement there, as ≤ 4 ranges
	// [lo, hi], broadcast to every lane as top = 128+hi and bot = 128−lo
	// (unused slots repeat the last range); flip has every lane's top bit
	// set when the ranges are C's own (a lane outside them exits) and is
	// 0 when they are the exits'; highExit has them set when 0x80–0xff
	// are exits.
	top, bot       [4]uint64
	flip, highExit uint64
}

// Contains reports whether b ∈ C.
func (inf *AccelInfo) Contains(b byte) bool {
	return inf.Class[b>>6]&(1<<(b&63)) != 0
}

// ScanRun returns the first index ≥ start at which chunk leaves the
// class (the run's exit byte), or len(chunk) when the run reaches the
// end of the chunk.
func (inf *AccelInfo) ScanRun(chunk []byte, start int) int {
	switch inf.kind {
	case kindSWAR:
		end := len(chunk)
		if inf.nx > 0 {
			end = min(end, start+swarPrefix)
		}
		i, hit := inf.swar(chunk, start, end)
		if hit {
			return i
		}
		if i+8 <= len(chunk) {
			// The run outlasted the prefix of a class with ≤ 4 exits.
			return inf.memchr(chunk, i)
		}
		return inf.bitmap(chunk, i)
	case kindExits:
		return inf.memchr(chunk, start)
	default:
		return inf.bitmap(chunk, start)
	}
}

// swar tests 8 bytes per step from i while a whole word fits before
// end. A lane's range test (128+hi−x7) & (x7+128−lo) has its top bit set
// exactly when lo ≤ x7 ≤ hi, and since x7 < 128 both terms stay within
// [1, 255], so no lane borrows or carries into the next; lanes whose own
// top bit is set are judged by highExit alone. It returns the lowest exit
// lane's index and true, or where it stopped and false.
func (inf *AccelInfo) swar(chunk []byte, i, end int) (int, bool) {
	t0, t1, t2, t3 := inf.top[0], inf.top[1], inf.top[2], inf.top[3]
	b0, b1, b2, b3 := inf.bot[0], inf.bot[1], inf.bot[2], inf.bot[3]
	flip, highExit := inf.flip, inf.highExit
	for ; i+8 <= end; i += 8 {
		x := binary.LittleEndian.Uint64(chunk[i : i+8])
		h := x & lanesHigh
		x7 := x ^ h
		in := (t0-x7)&(x7+b0) | (t1-x7)&(x7+b1) | (t2-x7)&(x7+b2) | (t3-x7)&(x7+b3)
		if m := (in^flip)&^h&lanesHigh | h&highExit; m != 0 {
			return i + bits.TrailingZeros64(m)>>3, true
		}
	}
	return i, false
}

// memchr finds the first exit at or after start with a chain of
// bytes.IndexByte scans, each bounded by the best hit so far. The chain
// runs over windows that double from memchrWindow bytes, so an exit byte
// that does not occur near the run costs the window, not the rest of
// the chunk: the total work stays proportional to the run length.
func (inf *AccelInfo) memchr(chunk []byte, start int) int {
	for w := memchrWindow; ; w *= 2 {
		lim := min(len(chunk), start+w)
		end := lim
		for t := 0; t < int(inf.nx); t++ {
			if j := bytes.IndexByte(chunk[start:end], inf.ex[t]); j >= 0 {
				end = start + j
			}
		}
		if end < lim || lim == len(chunk) {
			return end
		}
		start = lim
	}
}

// bitmap finds the first exit at or after start byte by byte.
func (inf *AccelInfo) bitmap(chunk []byte, start int) int {
	c := &inf.Class
	for i := start; i < len(chunk); i++ {
		b := chunk[i]
		if c[b>>6]&(1<<(b&63)) == 0 {
			return i
		}
	}
	return len(chunk)
}

// newAccelInfo picks the scan for a non-empty class: SWAR when C, or its
// complement, is ≤ 4 ranges of ASCII bytes and C holds all of
// 0x80–0xff or none of it; else the memchr chain when Σ∖C has ≤ 4
// bytes; else the bitmap.
func newAccelInfo(class [4]uint64) AccelInfo {
	inf := AccelInfo{Class: class, kind: kindBitmap}
	if exits := exitBytes(class); len(exits) <= 4 {
		inf.kind = kindExits
		inf.nx = uint8(copy(inf.ex[:], exits))
	}
	var highExit uint64
	switch {
	case class[2] == ^uint64(0) && class[3] == ^uint64(0):
	case class[2] == 0 && class[3] == 0:
		highExit = lanesHigh
	default:
		return inf
	}
	flip := uint64(lanesHigh)
	ranges := asciiRanges(class)
	// One of the two lists is non-empty; take the shorter such list.
	if out := asciiRanges([4]uint64{^class[0], ^class[1]}); len(ranges) == 0 || len(out) > 0 && len(out) < len(ranges) {
		flip, ranges = 0, out
	}
	if len(ranges) > 4 {
		return inf
	}
	for r := range inf.top {
		rg := ranges[min(r, len(ranges)-1)]
		inf.top[r] = uint64(128+rg[1]) * lanesOne
		inf.bot[r] = uint64(128-rg[0]) * lanesOne
	}
	inf.kind, inf.flip, inf.highExit = kindSWAR, flip, highExit
	return inf
}

// asciiRanges lists the maximal runs [lo, hi] of set bytes below 0x80,
// stopping at 5 (beyond that the SWAR kind does not apply).
func asciiRanges(class [4]uint64) [][2]int {
	var out [][2]int
	for b := 0; b < 128 && len(out) <= 4; b++ {
		if class[b>>6]&(1<<(b&63)) == 0 {
			continue
		}
		lo := b
		for b+1 < 128 && class[(b+1)>>6]&(1<<((b+1)&63)) != 0 {
			b++
		}
		out = append(out, [2]int{lo, b})
	}
	return out
}

// infoInterner dedupes accel classes: distinct states very often share
// one class (e.g. every string-interior state of a packed product).
type infoInterner struct {
	e   *Engine
	ids map[[4]uint64]int32
}

func newInfoInterner(e *Engine) *infoInterner {
	return &infoInterner{e: e, ids: map[[4]uint64]int32{}}
}

// intern returns the Infos index for the class, creating it on first
// use, or -1 when the class is empty (no self-loop worth accelerating).
func (it *infoInterner) intern(class [4]uint64) int32 {
	if class == [4]uint64{} {
		return -1
	}
	if id, ok := it.ids[class]; ok {
		return id
	}
	id := int32(len(it.e.Infos))
	it.e.Infos = append(it.e.Infos, newAccelInfo(class))
	it.ids[class] = id
	return id
}

// exitBytes lists Σ∖C, stopping at 5 (beyond that the bitmap kind wins).
func exitBytes(class [4]uint64) []byte {
	var out []byte
	for w := 0; w < 4; w++ {
		for m := ^class[w]; m != 0 && len(out) < 5; m &= m - 1 {
			out = append(out, byte(w<<6+bits.TrailingZeros64(m)))
		}
	}
	return out
}
