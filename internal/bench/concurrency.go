package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/parallel"
	"streamtok/internal/tepath"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// Concurrency measures the serving path (ISSUE 4) along its two axes:
//
//   - N independent streams tokenized by N goroutines over a shared
//     Tokenizer, using the pooled acquire/feed-batch/release loop. The
//     MB/s column is aggregate throughput; scaling is relative to N=1;
//     allocs/stream is the measured heap allocations per complete
//     stream (the steady-state target is ~0 — the residue is goroutine
//     spawns amortized over the round, not the feed path).
//   - One stream consumed through an io.Reader: the sequential
//     block-read loop vs the pipelined TokenizeReader, which overlaps
//     reading with window-parallel tokenization.
//
// Throughput scaling needs real cores; allocs/stream is
// hardware-independent and is what CI gates on.
func Concurrency(cfg Config) Table {
	t := Table{
		Title:  "Concurrency: pooled serving path and pipelined streaming",
		Note:   "aggregate MB/s over N independent streams, then single-stream reader modes; allocs/stream ~0 is the pooled path's guarantee",
		Header: []string{"mode", "N", "MB/s", "scaling", "allocs/stream"},
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
	input, err := workload.Generate("log", cfg.Seed, cfg.size(2_000_000))
	if err != nil {
		panic(err)
	}
	const chunk = 64 * 1024
	const streamsPerWorker = 8

	// runStreams executes one round: n workers × streamsPerWorker
	// complete streams each, over the pooled batch path.
	runStreams := func(n int) (mbPerSec, allocsPerStream float64) {
		counts := make([]int, n)
		sinks := make([]core.BatchFunc, n)
		for w := range sinks {
			w := w
			sinks[w] = func(batch []token.Token) { counts[w] += len(batch) }
		}
		round := func() {
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < streamsPerWorker; i++ {
						s := tok.AcquireStreamer()
						for p := 0; p < len(input); p += chunk {
							e := p + chunk
							if e > len(input) {
								e = len(input)
							}
							s.FeedBatch(input[p:e], sinks[w])
						}
						s.CloseBatch(sinks[w])
						tok.ReleaseStreamer(s)
					}
				}()
			}
			wg.Wait()
		}
		round() // warm the pools before counting
		trials := cfg.Trials
		if trials < 1 {
			trials = 1
		}
		runtime.GC()
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		d := timeIt(trials, round)
		runtime.ReadMemStats(&m2)
		bytesPerRound := n * streamsPerWorker * len(input)
		mbPerSec = float64(bytesPerRound) / 1e6 / d.Seconds()
		allocsPerStream = float64(m2.Mallocs-m1.Mallocs) / float64(trials*n*streamsPerWorker)
		return mbPerSec, allocsPerStream
	}

	ns := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		ns = append(ns, p)
	}
	var base float64
	for _, n := range ns {
		mb, allocs := runStreams(n)
		if n == 1 {
			base = mb
		}
		t.Rows = append(t.Rows, []string{
			"streams-pooled", itoa(n), fmt.Sprintf("%.1f", mb),
			fmt.Sprintf("%.2fx", mb/base), fmt.Sprintf("%.2f", allocs),
		})
	}

	// Single-stream reader modes. The sequential loop reads and
	// tokenizes on one goroutine; the pipelined loop double-buffers
	// reads ahead of window-parallel tokenization.
	emitNoop := func(token.Token, []byte) {}
	rd := bytes.NewReader(input)
	runReader := func(f func()) (mbPerSec, allocsPerStream float64) {
		f() // warm
		trials := cfg.Trials
		if trials < 1 {
			trials = 1
		}
		runtime.GC()
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		d := timeIt(trials, f)
		runtime.ReadMemStats(&m2)
		mbPerSec = float64(len(input)) / 1e6 / d.Seconds()
		allocsPerStream = float64(m2.Mallocs-m1.Mallocs) / float64(trials)
		return mbPerSec, allocsPerStream
	}
	seqMB, seqAllocs := runReader(func() {
		rd.Reset(input)
		if _, err := tok.Tokenize(rd, chunk, emitNoop); err != nil {
			panic(err)
		}
	})
	t.Rows = append(t.Rows, []string{
		"reader-seq", "1", fmt.Sprintf("%.1f", seqMB), "1.00x", fmt.Sprintf("%.1f", seqAllocs),
	})
	workers := runtime.GOMAXPROCS(0)
	pipeMB, pipeAllocs := runReader(func() {
		rd.Reset(input)
		if _, _, err := parallel.TokenizeReader(tok, rd, parallel.Options{Workers: workers, Window: 1 << 20}, emitNoop); err != nil {
			panic(err)
		}
	})
	t.Rows = append(t.Rows, []string{
		"reader-pipelined", itoa(workers), fmt.Sprintf("%.1f", pipeMB),
		fmt.Sprintf("%.2fx", pipeMB/seqMB), fmt.Sprintf("%.1f", pipeAllocs),
	})
	return t
}
