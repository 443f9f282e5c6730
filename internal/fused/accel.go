package fused

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Accel kinds: how ScanRun finds the first byte outside the class.
const (
	kindExits  uint8 = iota // exit set has ≤ 4 bytes: bounded memchr chain
	kindRepeat              // class is one byte: word-at-a-time compare
	kindBitmap              // general case: 256-bit bitmap scan
)

// AccelInfo describes one accel class: the self-loop byte class C and
// the precomputed strategy for locating the first byte of Σ∖C.
type AccelInfo struct {
	// Class is the 256-bit bitmap of C.
	Class [4]uint64
	kind  uint8
	nx    uint8   // number of exit bytes for kindExits
	ex    [4]byte // exit bytes for kindExits; ex[0] is C for kindRepeat
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
	case kindExits:
		// Each scan is bounded by the best hit so far, keeping the total
		// work proportional to the run length.
		end := len(chunk)
		for t := 0; t < int(inf.nx); t++ {
			if j := bytes.IndexByte(chunk[start:end], inf.ex[t]); j >= 0 {
				end = start + j
			}
		}
		return end
	case kindRepeat:
		c := inf.ex[0]
		rep := uint64(c) * 0x0101010101010101
		i := start
		for i+8 <= len(chunk) {
			if x := binary.LittleEndian.Uint64(chunk[i:]) ^ rep; x != 0 {
				return i + bits.TrailingZeros64(x)>>3
			}
			i += 8
		}
		for i < len(chunk) && chunk[i] == c {
			i++
		}
		return i
	default:
		c := inf.Class
		for i := start; i < len(chunk); i++ {
			b := chunk[i]
			if c[b>>6]&(1<<(b&63)) == 0 {
				return i
			}
		}
		return len(chunk)
	}
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
func (it *infoInterner) intern(class [4]uint64, size int) int32 {
	if size == 0 {
		return -1
	}
	if id, ok := it.ids[class]; ok {
		return id
	}
	inf := AccelInfo{Class: class, kind: kindBitmap}
	if size == 1 {
		inf.kind = kindRepeat
		inf.ex[0] = classBytes(class, 1)[0]
	} else if exits := exitBytes(class); len(exits) <= 4 {
		inf.kind = kindExits
		inf.nx = uint8(copy(inf.ex[:], exits))
	}
	id := int32(len(it.e.Infos))
	it.e.Infos = append(it.e.Infos, inf)
	it.ids[class] = id
	return id
}

// exitBytes lists Σ∖C, stopping at 5 (beyond that the bitmap kind wins).
func exitBytes(class [4]uint64) []byte {
	var inv [4]uint64
	for w := range class {
		inv[w] = ^class[w]
	}
	return classBytes(inv, 5)
}

// classBytes lists the first max set bytes of a bitmap.
func classBytes(class [4]uint64, max int) []byte {
	var out []byte
	for w := 0; w < 4; w++ {
		m := class[w]
		for m != 0 {
			out = append(out, byte(w<<6+bits.TrailingZeros64(m)))
			if len(out) >= max {
				return out
			}
			m &= m - 1
		}
	}
	return out
}
