// Package fused compiles StreamTok's per-byte decision sequence into flat
// action tables so the hot loop does as little dependent work per byte as
// the mode allows, in the spirit of flat-automaton lexer generators
// (de Nivelle & Muktubayeva) and re2c-lineage engines.
//
// Two layers:
//
//  1. Action-table fusion. For K ≤ 1 the Fig. 5 sequence (A step,
//     finality/maximality check, dead check, rule lookup, restart) is
//     packed into one uint32 per (state, byte-class): the next state already
//     accounts for the restart after an emission, and the action
//     (continue / dead / emit rule β) sits in the top byte — one load and
//     one predictable branch per input byte. For K ≥ 2 the Fig. 6 engine
//     steps B on the current byte and A on the byte K positions back, so
//     a single table needs the delay ring in its state space: a packed
//     engine explores the reachable (q_A, s_B, classes of the K delayed
//     bytes) product breadth-first, minimizes it on each transition's
//     action and target, and emits the same one-word-per-(state, class)
//     layout (the BPE pretokenizer's 499 reachable states minimize to 73);
//     B then lives in the states, so the tokenizer keeps no TeDFA.
//     When the product passes packedStateCap states (json reaches
//     118,045), A and B keep their own transition tables and the
//     maximality bitset probe + dead check + rule lookup collapse into
//     one int32 action word indexed by the (q_A, s_B) pair.
//
//  2. Accel states. At build time the engine finds states (pairs) whose
//     action is "continue" and that self-loop on a byte class C — string
//     bodies, digit runs, whitespace, comment interiors. While the input
//     stays in C the machine state provably cannot change and no token
//     boundary can fire, so the engine skips the run in bulk: when the
//     exit set Σ∖C has ≤ 4 bytes it chains bounded bytes.IndexByte
//     (memchr) scans; a one-byte class compares word-at-a-time; the rest
//     use a 256-bit bitmap scan. Exact token offsets are preserved
//     because the skipped region contributes no actions.
//
// The engine is built under a byte budget; callers fall back to the
// split loops when Build returns nil (budget exceeded, lazy TeDFA, or a
// rule count that does not fit the packed action byte).
package fused

import (
	"math/bits"
	"strconv"

	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// Mode selects the fused loop shape.
type Mode int

const (
	// ModeSmall is the single-table engine: over A's states for K ≤ 1,
	// over the minimized packed product for K ≥ 2.
	ModeSmall Mode = iota
	// ModeGeneral is the K ≥ 2 pair-action engine over an eager TeDFA,
	// built when the packed product is too large.
	ModeGeneral
)

// Packed-word layout for ModeSmall: state in the low 23 bits, the accel
// flag at bit 23, the action in the top byte.
const (
	// StateMask extracts the next state from a small-mode word.
	StateMask = 1<<23 - 1
	// SmallAccelBit flags that the next state is an accel state (the
	// action is necessarily SActContinue).
	SmallAccelBit = 1 << 23
	// SmallActShift moves the action byte into place.
	SmallActShift = 24

	// SActContinue .. SActEmitBase are the small-mode actions: emit
	// words carry rule+SActEmitBase.
	SActContinue uint32 = 0
	SActDead     uint32 = 1
	SActEmitBase uint32 = 2
)

// General-mode action words: 0 continue, 1 dead, rule+GEmitBase emit;
// GAccelBit is OR-ed onto a continue word when the pair is an accel
// state.
const (
	GContinue  int32 = 0
	GDead      int32 = 1
	GEmitBase  int32 = 2
	GAccelBit  int32 = 1 << 30
	GActionBit       = GAccelBit - 1 // mask off the accel flag
)

// Options bounds the construction.
type Options struct {
	// MaxTableBytes caps the memory of every array the fused hot loop
	// touches (default 16 MB): the packed/action tables and accel index
	// built here, plus the class-compressed A and B transition tables the
	// general loop indexes directly. A grammar that would exceed it keeps
	// the split engine; a negative cap keeps every grammar on it.
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
// DFA's, shared by A, B, and the fused tables.
type Engine struct {
	Mode Mode
	K    int

	// ClassOf is the tokenization DFA's byte-class map, copied here so
	// the hot loop touches one cache-resident array.
	ClassOf [256]uint8
	// NumClasses is the compressed row width C.
	NumClasses int

	// Words is the ModeSmall packed table, stride NumClasses per state.
	Words []uint32
	// Start is the state a stream starts in: A's start state, or the
	// product's (always 0) for a packed engine.
	Start int

	// Act is the ModeGeneral action table, Act[qa*TeStates+s].
	Act []int32
	// TeTrans and TeStates mirror the eager TeDFA so the hot loop can
	// index the raw slice (B steps via TeTrans[s*NumClasses+c]). The
	// slice shares its backing array with the tepath.Table, so its bytes
	// are accounted there, not in Engine.Bytes.
	TeTrans  []int32
	TeStates int

	// AccelIdx maps a state (ModeSmall) or pair index (ModeGeneral) to
	// an entry in Infos, or -1.
	AccelIdx []int32
	// Infos holds the deduplicated accel classes.
	Infos []AccelInfo

	name         string
	accelStates  int
	packedStates int // K ≥ 2 ModeSmall: the minimized product's states
}

// AccelStates returns how many states (pairs) were marked for run
// acceleration.
func (e *Engine) AccelStates() int { return e.accelStates }

// PackedStates returns the minimized product's state count for a
// packed (K ≥ 2, ModeSmall) engine and 0 for any other engine.
func (e *Engine) PackedStates() int {
	if e == nil {
		return 0
	}
	return e.packedStates
}

// Slots returns how many states (ModeSmall) or (q_A, s_B) pairs
// (ModeGeneral) the engine has at all — the denominator of the
// accel-state coverage fraction AccelStates/Slots.
func (e *Engine) Slots() int {
	if e == nil {
		return 0
	}
	if e.Mode == ModeSmall {
		return len(e.Words) / e.NumClasses
	}
	return len(e.Act)
}

// Bytes returns the memory footprint of every array the engine owns (for
// the RQ6-style accounting next to TableBytes): the packed/action tables,
// accel index, interned accel infos, and the engine's class-map copy.
// TeTrans is excluded — it aliases the tepath.Table's transition slice,
// which the tokenizer-level accounting already counts once.
func (e *Engine) Bytes() int {
	if e == nil {
		return 0
	}
	return len(e.Words)*4 + len(e.Act)*4 + len(e.AccelIdx)*4 + len(e.Infos)*40 + 256
}

// ModeName names the engine for diagnostics: "fused-k<K>" for the
// single-table engine ("fused-k0", "fused-k1", and "fused-k2" and up for
// a packed product) and "fused-general" for the pair-action engine.
func (e *Engine) ModeName() string { return e.name }

// smallName is ModeName for a single-table engine with lookahead k.
func smallName(k int) string { return "fused-k" + strconv.Itoa(max(k, 0)) }

// Build compiles the fused engine for a machine with lookahead bound k.
// te is the token-extension table when k ≥ 2; the fused engine needs
// its full powerstate space, so Build bows out when te is not complete
// (the tokenizer grows the TeDFA lazily per stream). For k ≥ 2 it first
// tries the packed product and builds the pair-action tables only when
// that aborts or does not fit. Build returns nil when fusion is not
// applicable or the tables would exceed the budget (any negative budget
// does) — the caller keeps the split loops.
func Build(m *tokdfa.Machine, k int, te *tepath.Table, opts Options) *Engine {
	opts = opts.withDefaults()
	if k <= 1 {
		return buildSmall(m, k, opts)
	}
	if !te.Complete() {
		return nil
	}
	if e, _ := buildPacked(m, k, te, opts); e != nil {
		return e
	}
	return buildGeneral(m, k, te, opts)
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
	e := &Engine{Mode: ModeSmall, K: k, ClassOf: d.ClassOf, NumClasses: nc, Start: d.Start, name: smallName(k)}
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

// buildGeneral fuses the maximality + dead + rule decisions of the
// Fig. 6 loop into one action word per (q_A, s_B) pair.
func buildGeneral(m *tokdfa.Machine, k int, te *tepath.Table, opts Options) *Engine {
	d := m.DFA
	nA := d.NumStates()
	teTrans, nc, emitOK, _ := te.Dump()
	nS := te.NumStates()
	// Budget everything the fused general loop indexes per byte: the
	// action table and accel index built here, plus the class-compressed
	// A and B transition rows and the class map. Dense rows made the A
	// table alone blow the default budget at a few thousand states; the
	// compressed substrate keeps grammars ~256/C larger fused.
	resident := nA*nS*8 + nA*nc*4 + nS*nc*4 + 256
	if resident > opts.MaxTableBytes {
		return nil
	}
	e := &Engine{
		Mode:       ModeGeneral,
		K:          k,
		Start:      d.Start,
		name:       "fused-general",
		ClassOf:    d.ClassOf,
		NumClasses: nc,
		TeTrans:    teTrans,
		TeStates:   nS,
		Act:        make([]int32, nA*nS),
	}
	for q := 0; q < nA; q++ {
		var w int32
		switch {
		case m.IsDead(q):
			w = GDead
		case d.IsFinal(q):
			w = GEmitBase + int32(d.Rule(q))
		}
		row := e.Act[q*nS : (q+1)*nS]
		for s := range row {
			switch {
			case w >= GEmitBase:
				// Emit only when the maximality bitset clears the
				// extension: T[q][S] == emitOK[S] bit q.
				if emitOK[s][q>>6]&(1<<(q&63)) != 0 {
					row[s] = w
				}
			default:
				row[s] = w
			}
		}
	}
	if !opts.NoAccel {
		e.addGeneralAccel(m, nA, nS)
	}
	return e
}

// addGeneralAccel intersects A's and B's self-loop classes per pair.
func (e *Engine) addGeneralAccel(m *tokdfa.Machine, nA, nS int) {
	d := m.DFA
	cb := e.classBytes()
	loopA := selfLoops(d.Trans, nA, e.NumClasses, cb)
	loopB := selfLoops(e.TeTrans, nS, e.NumClasses, cb)
	e.AccelIdx = make([]int32, nA*nS)
	interned := newInfoInterner(e)
	for q := 0; q < nA; q++ {
		la := loopA[q]
		for s := 0; s < nS; s++ {
			idx := q*nS + s
			e.AccelIdx[idx] = -1
			if e.Act[idx] != GContinue {
				continue
			}
			lb := loopB[s]
			var class [4]uint64
			for w := 0; w < 4; w++ {
				class[w] = la[w] & lb[w]
			}
			e.AccelIdx[idx] = interned.intern(class, popcount(class))
			if e.AccelIdx[idx] >= 0 {
				e.Act[idx] |= GAccelBit
				e.accelStates++
			}
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

// selfLoops computes, per state of a class-compressed table (nc columns,
// classBytes expanding each column to its byte bitmap), the bitmap of
// bytes on which the state transitions to itself.
func selfLoops(trans []int32, n, nc int, classBytes [][4]uint64) [][4]uint64 {
	out := make([][4]uint64, n)
	for q := 0; q < n; q++ {
		for c := 0; c < nc; c++ {
			if int(trans[q*nc+c]) == q {
				for wi := 0; wi < 4; wi++ {
					out[q][wi] |= classBytes[c][wi]
				}
			}
		}
	}
	return out
}
