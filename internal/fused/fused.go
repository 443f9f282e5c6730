// Package fused compiles StreamTok's per-byte decision sequence into one
// flat action table so the hot loop does one load and one predictable
// branch per byte, in the spirit of flat-automaton lexer generators (de
// Nivelle & Muktubayeva) and re2c-lineage engines.
//
// Two layers:
//
//  1. Action-table fusion. The decision sequence is packed into one
//     uint32 per (state, byte-class): the next state already accounts
//     for the restart after an emission, and the action (continue / dead
//     / emit rule β) sits in the top byte. For K ≤ 1 the states are A's
//     and the word folds Fig. 5's sequence (A step, finality/maximality
//     check, dead check, rule lookup, restart). For K ≥ 2 the Fig. 6
//     engine runs A K bytes behind the input, and B, the token-extension
//     DFA, only decides whether a final state of A is extended within the
//     next K bytes; the packed construction therefore keys each state on
//     what A's runs do over the K delayed bytes — A's state at the
//     window's end and a final/live/dead tag per earlier position, for
//     the run from q_A and from every delayed position where a token can
//     still start — explores that product breadth-first, minimizes it on
//     each transition's action and target, and emits the same
//     one-word-per-(state, class) layout (json's 441 reachable states
//     minimize to 383). It never reads the TeDFA, and the tokenizer keeps
//     none. Past a work bound (xml's product, at K = 6, reaches 3,530
//     states) the grammar keeps the split Fig. 6 loop.
//
//  2. Accel states. At build time the engine finds states whose action is
//     "continue" and that self-loop on a byte class C — string bodies,
//     digit runs, whitespace, comment interiors. While the input stays in
//     C the machine state provably cannot change and no token boundary
//     can fire, so the engine skips the run in bulk: when the exit set
//     Σ∖C has ≤ 4 bytes it chains bounded bytes.IndexByte (memchr) scans;
//     a one-byte class compares word-at-a-time; the rest use a 256-bit
//     bitmap scan. Exact token offsets are preserved because the skipped
//     region contributes no actions.
//
// The engine is built under a byte budget; callers fall back to the
// split loops when Build returns nil (budget or work bound exceeded, or
// a rule count that does not fit the action byte).
package fused

import (
	"math/bits"
	"strconv"

	"streamtok/internal/tokdfa"
)

// Packed-word layout: state in the low 23 bits, the accel flag at bit
// 23, the action in the top byte.
const (
	// StateMask extracts the next state from a packed word.
	StateMask = 1<<23 - 1
	// SmallAccelBit flags that the next state is an accel state (the
	// action is necessarily SActContinue).
	SmallAccelBit = 1 << 23
	// SmallActShift moves the action byte into place.
	SmallActShift = 24

	// SActContinue .. SActEmitBase are the actions: emit words carry
	// rule+SActEmitBase.
	SActContinue uint32 = 0
	SActDead     uint32 = 1
	SActEmitBase uint32 = 2
)

// Options bounds the construction.
type Options struct {
	// MaxTableBytes caps the memory of every array the fused hot loop
	// touches (default 16 MB): the packed table, the accel index and the
	// class map. A grammar that would exceed it keeps the split engine; a
	// negative cap keeps every grammar on it.
	MaxTableBytes int
	// NoAccel builds the engine without accel states (ablation).
	NoAccel bool
}

func (o Options) withDefaults() Options {
	if o.MaxTableBytes == 0 {
		o.MaxTableBytes = 16 << 20
	}
	return o
}

// Engine is an immutable compiled fast path for one tokenizer; safe for
// concurrent use by any number of streams.
//
// Every table is byte-class compressed: rows have NumClasses columns and
// the hot loop maps each input byte through ClassOf (one extra L1-resident
// load per byte) before indexing. The class partition is the tokenization
// DFA's.
type Engine struct {
	K int

	// ClassOf is the tokenization DFA's byte-class map, copied here so
	// the hot loop touches one cache-resident array.
	ClassOf [256]uint8
	// NumClasses is the compressed row width C.
	NumClasses int

	// Words is the packed table, stride NumClasses per state.
	Words []uint32
	// Start is the state a stream starts in: A's start state, or the
	// product's (always 0) for a packed engine.
	Start int

	// AccelIdx maps a state to an entry in Infos, or -1.
	AccelIdx []int32
	// Infos holds the deduplicated accel classes.
	Infos []AccelInfo

	name         string
	accelStates  int
	packedStates int // K ≥ 2: the minimized product's states
}

// AccelStates returns how many states were marked for run acceleration.
func (e *Engine) AccelStates() int { return e.accelStates }

// PackedStates returns the minimized product's state count for a
// packed (K ≥ 2) engine and 0 for any other engine.
func (e *Engine) PackedStates() int {
	if e == nil {
		return 0
	}
	return e.packedStates
}

// Slots returns how many states the engine has at all — the
// denominator of the accel-state coverage fraction AccelStates/Slots.
func (e *Engine) Slots() int {
	if e == nil {
		return 0
	}
	return len(e.Words) / e.NumClasses
}

// Bytes returns the memory footprint of every array the engine owns (for
// the RQ6-style accounting next to TableBytes): the packed table, accel
// index, interned accel infos, and the engine's class-map copy.
func (e *Engine) Bytes() int {
	if e == nil {
		return 0
	}
	return len(e.Words)*4 + len(e.AccelIdx)*4 + len(e.Infos)*40 + 256
}

// ModeName names the engine for diagnostics: "fused-k<K>" ("fused-k0",
// "fused-k1", and "fused-k2" and up for a packed product).
func (e *Engine) ModeName() string { return e.name }

// smallName is ModeName for an engine with lookahead k.
func smallName(k int) string { return "fused-k" + strconv.Itoa(max(k, 0)) }

// Build compiles the fused engine for a machine with lookahead bound k:
// over A's states for k ≤ 1, over the minimized packed product for
// k ≥ 2. Build returns nil when fusion is not applicable, the packed
// construction passes its work bound, or the table would exceed the
// budget (any negative budget does) — the caller keeps the split loops.
func Build(m *tokdfa.Machine, k int, opts Options) *Engine {
	opts = opts.withDefaults()
	if k <= 1 {
		return buildSmall(m, k, opts)
	}
	e, _ := buildPacked(m, k, opts)
	return e
}

// buildSmall packs the Fig. 5 (K=1) or immediate-emission (K=0) decision
// into one word per (state, class).
func buildSmall(m *tokdfa.Machine, k int, opts Options) *Engine {
	d := m.DFA
	n := d.NumStates()
	nc := d.NumClasses()
	if n > StateMask || len(m.Grammar.Rules)+int(SActEmitBase) > 255 {
		return nil
	}
	if k == 1 && d.IsFinal(d.Start) {
		// A rule matching ε would make the packed (Start, b) word emit a
		// zero-length token at every restart; such degenerate grammars
		// keep the split loop, whose action check runs only after A has
		// consumed at least one byte of the token.
		return nil
	}
	// Budget: packed words + accel index + class map.
	if n*nc*4+n*4+256 > opts.MaxTableBytes {
		return nil
	}
	e := &Engine{K: k, ClassOf: d.ClassOf, NumClasses: nc, Start: d.Start, name: smallName(k)}
	e.Words = make([]uint32, n*nc)
	start := uint32(d.Start)
	for q := 0; q < n; q++ {
		qFinal := d.IsFinal(q)
		qDead := m.IsDead(q)
		for c := 0; c < nc; c++ {
			nxt := d.StepClass(q, c)
			var w uint32
			switch {
			case k <= 0:
				// feedK0 semantics: emit the moment A reaches a final
				// state (token includes this byte), restart at Start.
				switch {
				case d.IsFinal(nxt):
					w = start | (SActEmitBase+uint32(d.Rule(nxt)))<<SmallActShift
				case m.IsDead(nxt):
					w = uint32(nxt) | SActDead<<SmallActShift
				default:
					w = uint32(nxt)
				}
			case qDead:
				// Fig. 5 with the delay unrolled: death is observed on
				// the byte after the killing step, matching the split
				// loop's Action(q, lookahead) timing.
				w = uint32(nxt) | SActDead<<SmallActShift
			case qFinal && !d.IsFinal(nxt):
				// Maximal token ends before this byte; the byte starts
				// the next token, so the packed next state already took
				// the restart transition.
				w = uint32(d.StepClass(d.Start, c)) |
					(SActEmitBase+uint32(d.Rule(q)))<<SmallActShift
			default:
				w = uint32(nxt)
			}
			e.Words[q*nc+c] = w
		}
	}
	if !opts.NoAccel {
		e.addSmallAccel(n)
	}
	return e
}

// classBytes expands the class map into per-class byte bitmaps, the
// currency of the accel layer (ScanRun inspects raw input bytes).
func (e *Engine) classBytes() [][4]uint64 {
	out := make([][4]uint64, e.NumClasses)
	for b := 0; b < 256; b++ {
		c := e.ClassOf[b]
		out[c][b>>6] |= 1 << (b & 63)
	}
	return out
}

// addSmallAccel finds the self-loop classes of the small engine and
// flags transitions entering accel states.
func (e *Engine) addSmallAccel(n int) {
	nc := e.NumClasses
	cb := e.classBytes()
	e.AccelIdx = make([]int32, n)
	interned := newInfoInterner(e)
	for q := 0; q < n; q++ {
		var class [4]uint64
		for c := 0; c < nc; c++ {
			w := e.Words[q*nc+c]
			if w>>SmallActShift == SActContinue && int(w&StateMask) == q {
				for wi := 0; wi < 4; wi++ {
					class[wi] |= cb[c][wi]
				}
			}
		}
		e.AccelIdx[q] = interned.intern(class, popcount(class))
		if e.AccelIdx[q] >= 0 {
			e.accelStates++
		}
	}
	// Flag every continue word whose target is an accel state.
	for i, w := range e.Words {
		if w>>SmallActShift == SActContinue && e.AccelIdx[w&StateMask] >= 0 {
			e.Words[i] = w | SmallAccelBit
		}
	}
}

// popcount reports |C| for a class bitmap.
func popcount(class [4]uint64) int {
	n := 0
	for _, w := range class {
		n += bits.OnesCount64(w)
	}
	return n
}
