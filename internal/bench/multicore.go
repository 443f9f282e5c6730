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

// Multicore proves the shard scheduler end to end: aggregate MB/s and
// p99 stream completion time vs worker count for sharded-server — N
// concurrent streams driven through the work-stealing shard scheduler,
// the serving daemon's admission path.
//
// The input is a fixed 4 MiB log workload with a pinned seed,
// deliberately independent of cfg.Scale. The speedup column is relative
// to the workers=1 row — the hardware-independent scaling ratio a
// multi-core runner gates with a floor. Absolute MB/s and p99 are
// recorded for the human reading the table, never gated.
func Multicore(cfg Config) Table {
	const (
		inputSize = 4 << 20
		chunk     = 64 * 1024
		seed      = 7
		streams   = 8 // concurrent streams per sharded-server round
	)
	t := Table{
		Title: "Multicore: shard scheduler scaling",
		Note: fmt.Sprintf("fixed 4 MiB log input (seed %d), %d concurrent streams; speedup is vs workers=1; host %s/%s %s GOMAXPROCS=%d NumCPU=%d",
			seed, streams, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()),
		Header: []string{"mode", "workers", "MB/s", "speedup", "p99_ms"},
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
	sinkNoop := func([]token.Token) {}

	// Each round runs streams concurrent pooled streamers, each driving
	// its chunks through the work-stealing scheduler exactly the way a
	// streamtokd handler does (I/O goroutine blocks in Do, CPU on the
	// shard). p99 here is over per-stream completion times — the tail a
	// serving SLO actually sees.
	workersAxis := []int{1, 2, 4}
	var base time.Duration
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
		t.Rows = append(t.Rows, []string{
			"sharded-server", itoa(n),
			fmt.Sprintf("%.1f", float64(streams*len(input))/1e6/med.Seconds()),
			fmt.Sprintf("%.2fx", base.Seconds()/med.Seconds()),
			fmt.Sprintf("%.2f", float64(p99.Microseconds())/1e3),
		})
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
