package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/parallel"
	"streamtok/internal/tepath"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// Multicore proves the parallel engine end to end: aggregate MB/s and
// p99 completion time vs worker count for both parallel execution modes
// the repo ships —
//
//   - speculate: whole-input speculate+stitch (parallel.Tokenize)
//   - sharded-server: N concurrent streams driven through the
//     work-stealing shard scheduler, the serving daemon's admission path
//
// The input is a fixed 4 MiB log workload with a pinned seed,
// deliberately independent of cfg.Scale: the segments / synced /
// rescanned columns are functions of the input bytes and the worker
// count alone, so CI gates them exactly, on any hardware. The speedup
// column is per-mode relative to its workers=1 row — the
// hardware-independent scaling ratio a multi-core runner gates with a
// floor. speculate's workers=1 row is the sequential engine itself (one
// segment on one pooled streamer), so its speedup column is an honest
// speedup over sequential tokenization. Absolute MB/s and p99 are
// recorded for the human reading the table, never gated.
func Multicore(cfg Config) Table {
	const (
		inputSize = 4 << 20
		minSeg    = 64 * 1024
		chunk     = 64 * 1024
		seed      = 7 // pinned: the stats columns are gated exactly in CI
		streams   = 8 // concurrent streams per sharded-server round
	)
	t := Table{
		Title: "Multicore: parallel engine scaling by execution mode",
		Note: fmt.Sprintf("fixed 4 MiB log input (seed %d); speedup is per-mode vs workers=1 (speculate's is the sequential engine); host %s/%s %s GOMAXPROCS=%d NumCPU=%d",
			seed, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()),
		Header: []string{"mode", "workers", "MB/s", "speedup", "p99_ms", "segments", "synced", "rescanned"},
	}
	spec, err := grammars.Lookup("log")
	if err != nil {
		panic(err)
	}
	m := spec.Machine()
	res := analysis.Analyze(m)
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		panic(err)
	}
	input, err := workload.Generate("log", seed, inputSize)
	if err != nil {
		panic(err)
	}
	samples := 2 * cfg.Trials
	if samples < 6 {
		samples = 6
	}
	emitNoop := func(token.Token, []byte) {}
	sinkNoop := func([]token.Token) {}

	// measure runs f samples times and reports the median and p99 of the
	// per-run wall times (at these sample counts p99 is effectively the
	// worst run — that is the point: a stitcher stall or a steal storm
	// shows up here and nowhere else).
	measure := func(f func()) (med, p99 time.Duration) {
		f() // warm pools and page in the input
		ds := make([]time.Duration, samples)
		for i := range ds {
			start := time.Now()
			f()
			ds[i] = time.Since(start)
		}
		return quantileDur(ds, 0.5), quantileDur(ds, 0.99)
	}

	workersAxis := []int{1, 2, 4}
	row := func(mode string, n int, bytesPerRun int, med, p99 time.Duration, base time.Duration, stats *parallel.Stats) {
		mb := float64(bytesPerRun) / 1e6 / med.Seconds()
		seg, syn, rsc := "-", "-", "-"
		if stats != nil {
			seg, syn, rsc = itoa(stats.Segments), itoa(stats.Synchronized), itoa(stats.ReScanned)
		}
		t.Rows = append(t.Rows, []string{
			mode, itoa(n), fmt.Sprintf("%.1f", mb),
			fmt.Sprintf("%.2fx", base.Seconds()/med.Seconds()),
			fmt.Sprintf("%.2f", float64(p99.Microseconds())/1e3),
			seg, syn, rsc,
		})
	}

	// speculate+stitch over the whole input.
	var base time.Duration
	for _, n := range workersAxis {
		opts := parallel.Options{Workers: n, MinSegment: minSeg}
		var stats parallel.Stats
		med, p99 := measure(func() {
			_, stats = parallel.Tokenize(tok, input, opts, emitNoop)
		})
		if n == workersAxis[0] {
			base = med
		}
		row("speculate", n, len(input), med, p99, base, &stats)
	}

	// Sharded server: streams concurrent pooled streamers, each driving
	// its chunks through the work-stealing scheduler exactly the way a
	// streamtokd handler does (I/O goroutine blocks in Do, CPU on the
	// shard). p99 here is over per-stream completion times — the tail a
	// serving SLO actually sees.
	for _, n := range workersAxis {
		sched := parallel.NewScheduler(n, streams)
		var streamDurs []time.Duration
		roundDur := func() time.Duration {
			durs := make([]time.Duration, streams)
			var wg sync.WaitGroup
			start := time.Now()
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					s0 := time.Now()
					h, ok := sched.Admit()
					if !ok {
						panic("bench: sharded-server admission refused")
					}
					s := tok.AcquireStreamer()
					var piece []byte
					feed := func() { s.FeedBatch(piece, sinkNoop) }
					for p := 0; p < len(input); p += chunk {
						e := p + chunk
						if e > len(input) {
							e = len(input)
						}
						piece = input[p:e]
						h.Do(feed)
					}
					h.Do(func() { s.CloseBatch(sinkNoop) })
					tok.ReleaseStreamer(s)
					h.Finish()
					durs[i] = time.Since(s0)
				}(i)
			}
			wg.Wait()
			streamDurs = append(streamDurs, durs...)
			return time.Since(start)
		}
		roundDur() // warm
		streamDurs = streamDurs[:0]
		rounds := make([]time.Duration, samples)
		for i := range rounds {
			rounds[i] = roundDur()
		}
		med := quantileDur(rounds, 0.5)
		p99 := quantileDur(streamDurs, 0.99)
		if n == workersAxis[0] {
			base = med
		}
		row("sharded-server", n, streams*len(input), med, p99, base, nil)
		sched.Close()
	}
	return t
}

// quantileDur returns the q-quantile of ds (nearest-rank on a sorted
// copy).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
