// Package parallel implements the paper's §8 future-work direction:
// parallelizing StreamTok across CPU cores. It uses speculative
// segment-parallel tokenization (in the spirit of Barenghi et al. and the
// paper's observation that bounded max-TND makes maximality local):
//
//  1. The input is split into P segments. Each worker tokenizes its
//     segment with the sequential StreamTok engine, *speculatively*
//     assuming a token starts at the segment's first byte. If speculation
//     dies (the segment starts on a byte no token begins with), it
//     restarts one byte past the dead position.
//  2. A stitching pass walks the segments left to right. It knows the
//     true tokenization of segment i-1 ends at some offset e (a token
//     boundary, where the tokenization DFA restarts). If e coincides with
//     a speculative token start of segment i, the rest of segment i's
//     speculation is exact — tokenization is deterministic from a
//     boundary — and is adopted wholesale. Otherwise the stitcher
//     re-tokenizes from e until it hits such a synchronization point or
//     leaves the segment.
//
// Bounded max-TND keeps re-tokenization short in practice: maximality
// depends on at most K lookahead bytes, so token boundaries
// "resynchronize" shortly after a segment start unless a single token
// spans the segment. Grammars with modal constructs (CSV/SQL quoted
// strings: the meaning of a quote depends on parity) may never
// resynchronize inside a segment; the result is still correct, the work
// just degrades toward the sequential algorithm for the affected
// segments.
//
// Speculative tokens are materialized in a packed form — a monotone array
// of end offsets, a parallel array of rule ids, and a sparse list of
// adjacency gaps (alignment restarts) — 5 bytes per token instead of 24,
// since phase-1 write bandwidth is what limits the speedup.
//
// The package also holds the serving daemon's shard Scheduler
// (sched.go), which runs many independent streams across cores.
package parallel

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"streamtok/internal/core"
	"streamtok/internal/token"
)

// Options configures Tokenize.
type Options struct {
	// Workers is the number of parallel workers (0 = GOMAXPROCS).
	Workers int
	// MinSegment is the smallest segment size worth parallelizing
	// (default 64 KB); smaller inputs run sequentially.
	MinSegment int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MinSegment <= 0 {
		o.MinSegment = 64 * 1024
	}
	return o
}

// Stats reports how much speculation paid off.
type Stats struct {
	Segments     int // segments processed in parallel
	Synchronized int // segments whose speculation was adopted
	ReScanned    int // bytes re-tokenized by the stitcher
}

// gap marks a speculative token whose start is not the previous token's
// end: the first token of each restart alignment.
type gap struct {
	idx   int32 // token index in the segment
	start int32 // absolute start offset
}

// segmentResult is one worker's speculative tokenization in packed form.
type segmentResult struct {
	base  int     // segment start offset in the input
	end   int     // segment end offset
	ends  []int32 // absolute end offset per token (strictly increasing)
	rules []uint8 // rule id per token
	gaps  []gap   // sorted by idx; always contains the first token
}

// startOf returns the absolute start of token j, given the gap cursor gp
// (index into gaps of the first gap with idx ≥ j).
func (r *segmentResult) startOf(j int, gp int) (start int, isGap bool) {
	if gp < len(r.gaps) && int(r.gaps[gp].idx) == j {
		return int(r.gaps[gp].start), true
	}
	return int(r.ends[j-1]), false // j > 0 here: token 0 is always a gap
}

// syncIndex returns the index of the speculative token starting exactly at
// p, if any.
func (r *segmentResult) syncIndex(p int) (int, bool) {
	// A gap token starting at p?
	g := sort.Search(len(r.gaps), func(k int) bool { return int(r.gaps[k].start) >= p })
	if g < len(r.gaps) && int(r.gaps[g].start) == p {
		return int(r.gaps[g].idx), true
	}
	// An adjacent token starting at p: its predecessor ends at p.
	j := sort.Search(len(r.ends), func(k int) bool { return int(r.ends[k]) >= p })
	if j < len(r.ends) && int(r.ends[j]) == p && j+1 < len(r.ends) {
		// Token j+1 starts at p unless it is a gap with another start.
		gg := sort.Search(len(r.gaps), func(k int) bool { return int(r.gaps[k].idx) >= j+1 })
		if gg < len(r.gaps) && int(r.gaps[gg].idx) == j+1 {
			return 0, false // covered by the gap case above if it matched
		}
		return j + 1, true
	}
	return 0, false
}

// Tokenize tokenizes an in-memory input using P cooperating workers and
// returns the same tokens, in order, as the sequential engine (verified by
// differential tests). As with any core.EmitFunc, text is valid only
// during the emit call. Inputs the packed segment form cannot hold, and
// inputs too small to split (see sequential), run on one streamer.
func Tokenize(t *core.Tokenizer, input []byte, opts Options, emit core.EmitFunc) (rest int, stats Stats) {
	opts = opts.withDefaults()
	// Fold the run's stitching stats into the tokenizer's observability
	// aggregate whichever way we return (stats is a named result). The
	// sequential path counts too: one run, one segment, so ParallelRuns
	// and ParallelSegments stay consistent across paths.
	defer func() { t.NoteParallel(stats.Segments, stats.Synchronized, stats.ReScanned) }()

	if sequential(len(input), len(t.Machine().Grammar.Rules), opts) {
		stats.Segments = 1
		s := t.AcquireStreamer()
		s.Feed(input, emit)
		rest = s.Close(emit)
		t.ReleaseStreamer(s)
		return rest, stats
	}

	// Phase 1: speculative tokenization of each segment in parallel.
	segSize := (len(input) + opts.Workers - 1) / opts.Workers
	numSegs := (len(input) + segSize - 1) / segSize
	results := make([]segmentResult, numSegs)
	var wg sync.WaitGroup
	for i := 0; i < numSegs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			speculate(t, input, i*segSize, segSize, &results[i])
		}()
	}
	wg.Wait()
	stats.Segments = numSegs

	// Phase 2: sequential stitching.
	pos := 0 // offset of the next token start (a known boundary)
	emitTok := func(start, end, rule int) {
		if emit != nil {
			emit(token.Token{Start: start, End: end, Rule: rule}, input[start:end])
		}
	}
	// adopt emits speculative tokens from index j while they stay
	// adjacent, returning the new boundary.
	adopt := func(seg *segmentResult, j, pos int) int {
		gp := sort.Search(len(seg.gaps), func(k int) bool { return int(seg.gaps[k].idx) >= j })
		for ; j < len(seg.ends); j++ {
			start, isGap := seg.startOf(j, gp)
			if start != pos {
				break // restart-alignment gap: the true run stalls here
			}
			if isGap {
				gp++
			}
			end := int(seg.ends[j])
			emitTok(pos, end, int(seg.rules[j]))
			pos = end
		}
		return pos
	}

	for i := 0; i < numSegs && pos < len(input); i++ {
		seg := &results[i]
		if pos >= seg.end {
			continue // a long token already carried us past this segment
		}
		if j, ok := seg.syncIndex(pos); ok {
			stats.Synchronized++
			pos = adopt(seg, j, pos)
			continue
		}
		// Re-tokenize from pos until we hit a speculative start of this
		// segment (then adopt) or leave the segment.
		reStart := pos
		s := t.AcquireStreamer()
		adopted := false
		var pending []token.Token
		collect := func(tk token.Token, _ []byte) {
			pending = append(pending, token.Token{Start: tk.Start + reStart, End: tk.End + reStart, Rule: tk.Rule})
		}
		feedPos := reStart
		for feedPos < len(input) && !s.Stopped() {
			chunkEnd := feedPos + 4096
			if chunkEnd > len(input) {
				chunkEnd = len(input)
			}
			s.Feed(input[feedPos:chunkEnd], collect)
			feedPos = chunkEnd
			// Drain re-derived tokens, watching for synchronization.
			for len(pending) > 0 {
				tk := pending[0]
				pending = pending[1:]
				emitTok(tk.Start, tk.End, tk.Rule)
				pos = tk.End
				if pos >= seg.end {
					break
				}
				if j, ok := seg.syncIndex(pos); ok {
					pos = adopt(seg, j, pos)
					adopted = true
					break
				}
			}
			if adopted || pos >= seg.end {
				break
			}
		}
		stats.ReScanned += feedPos - reStart
		if adopted {
			t.ReleaseStreamer(s)
			stats.Synchronized++
			continue
		}
		if s.Stopped() && pos < seg.end {
			// Untokenizable remainder — finish like the sequential run.
			// The run degraded to sequential here: segments past i were
			// speculated but never stitched, so report only the ones
			// actually examined.
			stats.Segments = i + 1
			r := s.Rest() + reStart
			t.ReleaseStreamer(s)
			if r >= pos {
				return r, stats
			}
			return pos, stats
		}
		if feedPos >= len(input) && !s.Stopped() {
			// Same degradation accounting: this re-scan consumed the rest
			// of the input sequentially, discarding the speculation of
			// every later segment. Close and emit the tail.
			stats.Segments = i + 1
			tailRest := s.Close(collect)
			for _, tk := range pending {
				emitTok(tk.Start, tk.End, tk.Rule)
			}
			t.ReleaseStreamer(s)
			return tailRest + reStart, stats
		}
		// The re-scan streamer was abandoned mid-flight (segment left or
		// speculation adopted): recycle it.
		t.ReleaseStreamer(s)
	}
	// The input is fully tokenized: pos == len(input) (a dead stop
	// already returned above).
	return pos, stats
}

// sequential reports whether an n-byte input over a grammar of rules
// rules runs on one streamer instead of speculating: one worker, or
// segments under MinSegment, or an input the packed segment form
// cannot hold — rule ids are stored in a byte and offsets in an int32.
func sequential(n, rules int, opts Options) bool {
	if opts.Workers == 1 || rules > 256 || n > math.MaxInt32 {
		return true
	}
	return (n+opts.Workers-1)/opts.Workers < opts.MinSegment
}

// speculate runs one worker: tokenize [base, base+segSize) speculatively,
// reading at most one extra segment of lookahead, restarting past dead
// positions, and packing the results into res.
func speculate(t *core.Tokenizer, input []byte, base, segSize int, res *segmentResult) {
	end := base + segSize
	if end > len(input) {
		end = len(input)
	}
	res.base, res.end = base, end
	res.ends = make([]int32, 0, segSize/3)
	res.rules = make([]uint8, 0, segSize/3)

	collectDone := false
	streamBase := base
	lastEnd := -1
	collect := func(tk token.Token, _ []byte) {
		if collectDone {
			return
		}
		start := tk.Start + streamBase
		if start >= end {
			collectDone = true
			return
		}
		if start != lastEnd {
			res.gaps = append(res.gaps, gap{idx: int32(len(res.ends)), start: int32(start)})
		}
		tkEnd := tk.End + streamBase
		res.ends = append(res.ends, int32(tkEnd))
		res.rules = append(res.rules, uint8(tk.Rule))
		lastEnd = tkEnd
	}

	// The worker reads at most one extra segment past its own: if a
	// single token spans that much, speculation is useless anyway and
	// the stitcher handles the region sequentially. This caps phase-1
	// work at 2n in total.
	limit := end + segSize
	if limit > len(input) {
		limit = len(input)
	}
	for streamBase < end && !collectDone {
		s := t.AcquireStreamer()
		pos := streamBase
		for pos < limit && !collectDone && !s.Stopped() {
			// One big feed up to the segment end, then small chunks:
			// the worker usually needs only a token's worth of bytes
			// past its segment.
			chunkEnd := end
			if chunkEnd <= pos {
				chunkEnd = pos + 4096
			}
			if chunkEnd > limit {
				chunkEnd = limit
			}
			s.Feed(input[pos:chunkEnd], collect)
			pos = chunkEnd
		}
		if s.Stopped() {
			// Restart past the byte that killed this alignment.
			r := s.Rest()
			t.ReleaseStreamer(s)
			streamBase += r + 1
			continue
		}
		if !collectDone && pos >= len(input) {
			s.Close(collect)
		}
		t.ReleaseStreamer(s)
		break
	}
}
