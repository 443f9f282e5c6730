// Command perfbench is the streamtok benchmark. It runs one workload
// against the program built from the same checkout and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload serve-grammars --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also climbs the layer ladder and reports the per-layer metrics.
// Inputs are generated from --seed onto disk under .bench_build/inputs
// before any timing, and every output is checked against a digest
// computed in process. A full record of each run (workload reason, seed,
// host provenance, sample counts, failures) goes to
// .bench_build/results, and traced runs write their spans to
// .bench_build/traces.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// whys records why each workload exists, next to its results.
var whys = map[string]string{
	"file-docs": "library path as streamtok on a file: Tokenize over large on-disk log/json/csv/xml documents and one long prompt " +
		"through the 8k vocab; time goes to core feed loops, the reader driver and bpe, and the long prompt overflows the piece cache",
	"serve-grammars": "streamtokd over loopback with 2 closed-loop clients: NDJSON and binary framing, long tokens (accel, live carry), " +
		"small requests, hold/cursor resume pairs and ad-hoc ?rule= grammars; time goes to framing, the drive loop, scheduler, registry and cursors",
}

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []string{"throughput_mbps", "latency_p50_ms", "latency_p99_ms", "ttft_p50_ms", "ttft_p99_ms", "peak_rss_mb", "setup_s"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	wl        string
	seed      int64
	seconds   time.Duration
	trace     bool
	out       string
	daemonBin string
	self      string

	in       *inputs
	res      result
	problems []string       // failures, first ones kept for the record
	detail   map[string]any // the record file's details
	spans    map[string][]span
}

func main() {
	root := flag.String("root", ".", "checkout root; build outputs and inputs go to <root>/.bench_build")
	daemonBin := flag.String("daemon", "", "path of the streamtokd binary built from this checkout")
	wl := flag.String("workload", "", "file-docs or serve-grammars")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced phases and the layer ladder and reports per-layer metrics")
	child := flag.String("child", "", "internal: run as the file-docs tokenizing process")
	flag.Parse()

	if *child != "" {
		if err := runFileDocsChild(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := whys[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		wl: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1,
		out: filepath.Join(*root, ".bench_build"), daemonBin: *daemonBin, self: self,
		detail: map[string]any{}, spans: map[string][]span{},
		res: result{Metrics: map[string]metric{}},
	}
	watchdog()
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		killAll()
		os.Exit(1)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (b *bench) run() error {
	if b.daemonBin == "" {
		return errors.New("-daemon is required")
	}
	for _, dir := range []string{"results", "traces", "logs"} {
		if err := os.MkdirAll(filepath.Join(b.out, dir), 0o755); err != nil {
			return err
		}
	}
	var err error
	if b.in, err = generate(b.out, b.wl, b.seed, b.trace); err != nil {
		return err
	}
	needVocab := b.wl != "serve-grammars" || b.trace
	if err := b.in.prepare(b.out, b.seed, needVocab); err != nil {
		return err
	}
	if b.wl == "file-docs" {
		err = b.fileDocs()
	} else {
		err = b.serve()
	}
	if err != nil {
		return err
	}
	if b.trace {
		// A traced run reports the per-layer metrics alone; its
		// end-to-end numbers are perturbed by the tracing and the ladder.
		for _, name := range e2eMetrics {
			delete(b.res.Metrics, name)
		}
		b.set("error_rate", ratio(uint64(b.res.Failed), uint64(b.res.Attempted)), "frac")
	}
	b.res.Correct = b.res.Failed == 0 && len(b.problems) == 0
	return b.writeRecord()
}

// opDone counts one attempted op and its failure, if any.
func (b *bench) opDone(fail string) {
	b.res.Attempted++
	if fail != "" {
		b.res.Failed++
		b.problem(fail)
	}
}

// problem records a failure; the first few are kept for the record.
func (b *bench) problem(msg string) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
	if len(b.problems) == 1 {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", msg)
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// timing is what a timed phase delivered: the seconds it was busy and
// every op's latency and time to first token in ms, in the order the
// ops started.
type timing struct {
	secs      float64
	lat, ttft []float64
	scales    []float64 // each window's factor to reference host speed
}

// e2e sets the end-to-end metrics shared by every workload from the
// phase's times at reference host speed, and records the unscaled ones
// beside them.
func (b *bench) e2e(okBytes int, scaled, raw timing) {
	b.set("throughput_mbps", float64(okBytes)/1e6/scaled.secs, "MB/s")
	l, t := summarizeRun(scaled.lat), summarizeRun(scaled.ttft)
	b.set("latency_p50_ms", l.P50, "ms")
	b.set("latency_p99_ms", l.Tail, "ms")
	b.set("ttft_p50_ms", t.P50, "ms")
	b.set("ttft_p99_ms", t.Tail, "ms")
	b.detail["latency_ms"], b.detail["ttft_ms"] = l, t
	b.detail["unscaled"] = map[string]any{
		"throughput_mbps": float64(okBytes) / 1e6 / raw.secs,
		"latency_ms":      summarizeRun(raw.lat),
		"ttft_ms":         summarizeRun(raw.ttft),
		"host_slowdown":   raw.secs / scaled.secs, // over the reference speed
		"window_scales":   scaled.scales,
	}
}

// writeRecord saves the run's full record: why the workload exists, the
// seed, host provenance, the result and every detail behind it.
func (b *bench) writeRecord() error {
	name := fmt.Sprintf("%s-s%d-trace%d", b.wl, b.seed, boolInt(b.trace))
	if b.trace {
		data, err := json.Marshal(b.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(b.out, "traces", name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	rec := map[string]any{
		"workload":   b.wl,
		"why":        whys[b.wl],
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.trace,
		"provenance": provenance(),
		"result":     b.res,
		"failures":   b.problems,
		"details":    b.detail,
		"inputs":     b.in.Dir,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %d failed; record in %s\n",
		b.wl, b.seed, b.res.Attempted, b.res.Failed, filepath.Join(b.out, "results", name+".json"))
	return os.WriteFile(filepath.Join(b.out, "results", name+".json"), data, 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// provenance describes the host a measurement was taken on.
func provenance() map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// Every process the benchmark starts is registered here, so a watchdog
// or a signal can stop them all before the benchmark exits.
var (
	procMu sync.Mutex
	procs  = map[*os.Process]bool{}
)

func track(p *os.Process)   { procMu.Lock(); procs[p] = true; procMu.Unlock() }
func untrack(p *os.Process) { procMu.Lock(); delete(procs, p); procMu.Unlock() }

func killAll() {
	procMu.Lock()
	defer procMu.Unlock()
	for p := range procs {
		_ = p.Kill()
		_, _ = p.Wait()
	}
}

// runLimit keeps a run inside the 180 s a benchmark run may take.
const runLimit = 170 * time.Second

func watchdog() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		case <-time.After(runLimit):
			fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runLimit)
		}
		killAll()
		os.Exit(1)
	}()
}
