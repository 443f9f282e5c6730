package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A percentile with fewer samples past it is set by a handful of
// outliers, so the tail metric falls back to the highest percentile
// that still has this many.
const minTail = 10

// tailPercentile returns the highest whole percentile, at most 99, that
// has at least minTail of n samples beyond it, or 0 when even the median
// has fewer (n < 2*minTail).
func tailPercentile(n int) int {
	if n < 2*minTail {
		return 0
	}
	p := int(math.Floor(100 - 100*float64(minTail)/float64(n)))
	if p > 99 {
		p = 99
	}
	return p
}

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks, the rule Python's
// statistics.quantiles(method="inclusive") uses.
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// dist summarises a latency sample over the whole run: its median and
// its tail percentile under the minTail rule, with the sample count that
// backs both. PerWindow holds the p50 and tail of each of up to
// maxWindows consecutive windows of a long run, as a diagnostic of when
// in the run the tail arose; no metric is taken from it.
type dist struct {
	N         int          `json:"n"`
	P50       float64      `json:"p50"`
	TailP     int          `json:"tail_percentile"`
	Tail      float64      `json:"tail"`
	Max       float64      `json:"max"`
	PerWindow [][2]float64 `json:"per_window,omitempty"`
}

// summarize computes the dist of xs. When there are too few samples for
// any percentile with minTail beyond it, the tail is the median.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = quantile(s, 0.5)
	d.TailP = tailPercentile(len(s))
	if d.TailP == 0 {
		d.TailP = 50
	}
	d.Tail = quantile(s, float64(d.TailP)/100)
	d.Max = s[len(s)-1]
	return d
}

// Per-window diagnostics: a run with at least two windows of windowMin
// samples is also summarised per window, in up to maxWindows windows.
const (
	windowMin  = 1000
	maxWindows = 5
)

// summarizeRun is summarize of time-ordered samples plus their
// per-window diagnostics.
func summarizeRun(xs []float64) dist {
	d := summarize(xs)
	if w := min(maxWindows, len(xs)/windowMin); w > 1 {
		for i := 0; i < w; i++ {
			part := summarize(xs[i*len(xs)/w : (i+1)*len(xs)/w])
			d.PerWindow = append(d.PerWindow, [2]float64{part.P50, part.Tail})
		}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
