package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"streamtok/internal/parallel"
)

// clients is how many goroutines, each with one connection, the serving
// workloads drive the daemon with: the 2 cores of the host the benchmark
// was defined on, so the generator never outnumbers the cores.
const clients = 2

// setupReps is how many times each run measures set-up; setup_s is the
// median, each at reference host speed by the calibration slices just
// before it.
const setupReps = 11

// tracedShare is the part of --seconds each of the traced run's two
// end-to-end phases (untraced, then traced) lasts; the ladder follows.
const tracedShare = 4

// fileDocs runs the library workload through tokenizing children.
// setup_s and peak_rss_mb are medians over setupReps fresh children that
// each set up and make a pass over the documents; the last one also runs
// the timed phases. A child's memory peak is set by when its garbage
// collections fall, so one child's peak would swing run to run. A
// file-docs job is one pass over the document set, as a user tokenizing
// the set waits for it: latency is the pass time, and the time to first
// token runs from the pass start to its first token.
func (b *bench) fileDocs() error {
	phases := []childPhase{{Seconds: b.seconds}}
	if b.trace {
		phases = []childPhase{{Seconds: b.seconds / tracedShare}, {Traced: true, Seconds: b.seconds / tracedShare}}
	}
	// The generator's own garbage collection must not run beside the
	// children.
	runtime.GC()
	var setup, rawSetup, setupRSS, peakRSS []float64
	compile := map[string][]float64{}
	var rep *childReport
	var genCPU time.Duration
	for i := 0; i < setupReps; i++ {
		job := childJob{Items: b.in.Items, VocabPath: b.in.VocabPath}
		if i == setupReps-1 {
			job.Phases = phases
		}
		var err error
		rep, genCPU, err = runChild(b.self, job, filepath.Join(b.out, "logs", fmt.Sprintf("file-docs-child-%d.log", i)))
		if err != nil {
			return err
		}
		setup = append(setup, rep.Setup*scaleFor(rep.SetupSlice, rep.SetupSlice))
		rawSetup = append(rawSetup, rep.Setup)
		setupRSS, peakRSS = append(setupRSS, rep.SetupRSSMB), append(peakRSS, rep.PeakRSSMB)
		for src, s := range rep.Compile {
			compile[src] = append(compile[src], s)
		}
	}
	b.set("setup_s", median(setup), "s")
	compileMed := map[string]float64{}
	for src, ts := range compile {
		compileMed[src] = median(ts)
	}
	b.detail["setup_s"], b.detail["unscaled_setup_s"] = setup, rawSetup
	b.detail["setup_rss_mb"], b.detail["peak_rss_mb"], b.detail["compile_s"] = setupRSS, peakRSS, compileMed
	mbps := make([]float64, len(rep.Phases))
	for i, ph := range rep.Phases {
		// Each pass is a window, scaled by the slices around it.
		okBytes := 0
		var scaled, raw timing
		var passStart, passFirst int64
		for j, op := range ph.Ops {
			b.opDone(op.Fail)
			if op.Fail == "" {
				okBytes += op.Bytes
			}
			if j == 0 || ph.Ops[j-1].Pass != op.Pass {
				passStart, passFirst = op.Start, 0
			}
			if passFirst == 0 {
				passFirst = op.First
			}
			if j == len(ph.Ops)-1 || ph.Ops[j+1].Pass != op.Pass {
				k := scaleFor(ph.Slices[op.Pass], ph.Slices[op.Pass+1])
				pass := float64(op.End-passStart) / 1e6
				raw.secs += pass / 1e3
				raw.lat = append(raw.lat, pass)
				scaled.secs += k * pass / 1e3
				scaled.scales = append(scaled.scales, k)
				scaled.lat = append(scaled.lat, k*pass)
				if passFirst > 0 {
					first := float64(passFirst-passStart) / 1e6
					raw.ttft = append(raw.ttft, first)
					scaled.ttft = append(scaled.ttft, k*first)
				}
			}
		}
		mbps[i] = float64(okBytes) / 1e6 / scaled.secs
		if i == 0 && !b.trace {
			b.e2e(okBytes, scaled, raw)
			b.set("peak_rss_mb", median(peakRSS), "MB")
		}
	}
	if !b.trace {
		return nil
	}

	un, tr := rep.Phases[0], rep.Phases[1]
	var lags []float64
	for i := 1; i < len(un.Ops); i++ {
		// Between passes runs a calibration slice, not the generator.
		if un.Ops[i].Pass == un.Ops[i-1].Pass {
			lags = append(lags, float64(un.Ops[i].Start-un.Ops[i-1].End)/1e6)
		}
	}
	b.setLoadgen(lags, genCPU, un.CPU)
	b.set("trace.overhead_frac", mbps[0]/mbps[1]-1, "frac")
	b.setEngineRatios(un.Stats)
	b.spans["e2e"] = tr.Spans

	d, err := startDaemon(b.daemonBin, filepath.Join(b.out, "logs", "file-docs-daemon.log"),
		"-preload", strings.Join(catalogSources, ","), "-vocab", b.in.VocabPath)
	if err != nil {
		return err
	}
	defer d.stop()
	lad, err := b.climb(d, true, b.in.Items)
	if err != nil {
		return err
	}
	// Reconcile: every traced op is one Tokenize from disk, the ladder's
	// streamtok.tokenize rung on the same document.
	var predicted time.Duration
	for _, op := range tr.Ops {
		predicted += sumSelf(lad.rungs[op.Item].chainSelf("streamtok.tokenize"))
	}
	b.setReconcile(predicted, tr.Spans)
	b.set("streamtok.compile_s", sumValues(compileMed), "s")
	return nil
}

// serve runs a serving workload against a streamtokd child.
func (b *bench) serve() error {
	args := []string{"-preload", strings.Join(catalogSources, ",")}
	// Set-up and the set-up memory peak are medians over setupReps
	// daemon starts; the last daemon serves the timed phases.
	// peak_rss_mb is that median plus whatever serving grew the last
	// daemon beyond its own set-up peak.
	cal := newCalibrator(clients)
	var ready, rawReady, readyRSS []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		slice := settledSlice(cal)
		var err error
		d, err = startDaemon(b.daemonBin, filepath.Join(b.out, "logs", fmt.Sprintf("%s-daemon-%d.log", b.wl, i)), args...)
		if err != nil {
			return err
		}
		rss, err := procStatus(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			d.stop()
			return err
		}
		ready = append(ready, d.ready.Seconds()*scaleFor(slice, slice))
		rawReady, readyRSS = append(rawReady, d.ready.Seconds()), append(readyRSS, rss)
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping streamtokd: %w", err)
			}
		}
	}
	defer d.stop()
	b.set("setup_s", median(ready), "s")
	b.detail["setup_s"], b.detail["unscaled_setup_s"], b.detail["setup_rss_mb"] = ready, rawReady, readyRSS

	hc := newClient()
	buf := make([]byte, readBuf)
	for _, o := range warmOps(b.in, b.seed) {
		r := runOp(hc, d.base, &o, nil, buf)
		b.opDone(r.fail)
	}
	hc.CloseIdleConnections()

	ops := opSequence(b.in, b.seed, 1<<14)
	load := func(seconds time.Duration, tr *tracer) (*loadResult, error) {
		return closedLoop(d, cal, ops, clients, seconds, tr)
	}
	phaseDone := func(lr *loadResult) {
		for _, r := range lr.ops {
			b.opDone(r.fail)
		}
		if msg := lr.reconcile(); msg != "" {
			b.problem(msg)
		}
	}
	if !b.trace {
		lr, err := load(b.seconds, nil)
		if err != nil {
			return err
		}
		phaseDone(lr)
		okBytes, scaled, raw := lr.samples()
		b.e2e(okBytes, scaled, raw)
		var lags []float64
		for _, r := range lr.ops {
			lags = append(lags, ms(r.lag))
		}
		b.detail["lag_ms"] = summarize(lags)
		rss, err := procStatus(d.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return err
		}
		b.set("peak_rss_mb", median(readyRSS)+max(0, rss-readyRSS[len(readyRSS)-1]), "MB")
		b.detail["ops"] = len(lr.ops)
		return nil
	}

	un, err := load(b.seconds/tracedShare, nil)
	if err != nil {
		return err
	}
	phaseDone(un)
	tracer := newTracer()
	trd, err := load(b.seconds/tracedShare, tracer)
	if err != nil {
		return err
	}
	phaseDone(trd)
	spans := tracer.snapshot()
	b.spans["e2e"] = spans

	var lags []float64
	for _, r := range un.ops {
		lags = append(lags, ms(r.lag))
	}
	b.setLoadgen(lags, un.genCPU, un.progCPU)
	b.set("trace.overhead_frac", un.mbps()/trd.mbps()-1, "frac")
	b.setEngineRatios(un.after.engineTotal().sub(un.before.engineTotal()))
	b.setServer(un.before, trd.after)

	lad, err := b.climb(d, false, b.in.Items)
	if err != nil {
		return err
	}
	var predicted time.Duration
	for _, r := range trd.ops {
		top := "server.ndjson"
		if r.mode == "bin" {
			top = "server.bin"
		}
		predicted += sumSelf(lad.rungs[r.item].chainSelf(top))
	}
	b.setReconcile(predicted, spans)
	// Set-up compiles what the daemon serves; the ladder's own prompts
	// are not part of this workload.
	compile := map[string]float64{}
	for _, it := range b.in.Items {
		if it.Kind != "ladder-prompt" {
			compile[it.Source] = lad.compile[it.Source]
		}
	}
	b.detail["compile_s"] = compile
	b.set("streamtok.compile_s", sumValues(compile), "s")
	return nil
}

// samples returns the bytes of successful ops and the phase's timing,
// at reference host speed and unscaled: its busy seconds and every op's
// latency and time to first token, from when it was sent, in send order.
func (lr *loadResult) samples() (okBytes int, scaled, raw timing) {
	sort.Slice(lr.ops, func(i, j int) bool { return lr.ops[i].sent.Before(lr.ops[j].sent) })
	for _, w := range lr.windows {
		raw.secs += w.end.Sub(w.start).Seconds()
		scaled.secs += w.scale * w.end.Sub(w.start).Seconds()
		scaled.scales = append(scaled.scales, w.scale)
	}
	w := 0
	for _, r := range lr.ops {
		for w < len(lr.windows)-1 && !r.sent.Before(lr.windows[w].end) {
			w++
		}
		k := lr.windows[w].scale
		if r.fail == "" {
			okBytes += r.bytes
		}
		raw.lat = append(raw.lat, ms(r.end.Sub(r.sent)))
		scaled.lat = append(scaled.lat, k*ms(r.end.Sub(r.sent)))
		if !r.first.IsZero() {
			raw.ttft = append(raw.ttft, ms(r.first.Sub(r.sent)))
			scaled.ttft = append(scaled.ttft, k*ms(r.first.Sub(r.sent)))
		}
	}
	return okBytes, scaled, raw
}

// mbps is the phase's throughput at reference host speed.
func (lr *loadResult) mbps() float64 {
	okBytes, scaled, _ := lr.samples()
	return float64(okBytes) / 1e6 / scaled.secs
}

func (b *bench) setLoadgen(lags []float64, gen, prog time.Duration) {
	l := summarize(lags)
	b.set("loadgen.lag_p99_ms", l.Tail, "ms")
	b.detail["loadgen.lag_ms"] = l
	b.set("loadgen.cpu_frac", gen.Seconds()/(gen+prog).Seconds(), "frac")
}

// setEngineRatios derives the core and bpe ratio metrics from engine
// counters: AggregateStats in process, /metrics deltas for the daemon.
func (b *bench) setEngineRatios(s engineStats) {
	b.set("core.accel_skip_frac", ratio(s.AccelSkippedBytes, s.BytesIn), "frac")
	b.set("core.accel_fallback_per_attempt", ratio(s.FusedFallbacks, s.AccelAttempts), "frac")
	b.set("core.carry_max_bytes", float64(s.CarryMax), "B")
	b.detail["engine_stats"] = s
	if s.VocabBytes > 0 {
		b.setBPE(s)
	}
}

func (b *bench) setBPE(s engineStats) {
	b.set("bpe.cache_hit_frac", ratio(s.BPECacheHits, s.BPECacheHits+s.BPECacheMisses), "frac")
	b.set("bpe.cache_evictions_per_mib", float64(s.BPECacheEvictions)/(float64(s.VocabBytes)/(1<<20)), "1/MiB")
	b.set("bpe.fallback_frac", ratio(s.BPEFallbacks, s.BPEPieces), "frac")
}

// setServer derives the server metrics from /metrics deltas.
func (b *bench) setServer(before, after *serverMetrics) {
	b.set("parallel.stolen_frac", ratio(after.Scheduler.Stolen-before.Scheduler.Stolen,
		after.Scheduler.Dispatched-before.Scheduler.Dispatched), "frac")
	hits, misses := after.Registry.Hits-before.Registry.Hits, after.Registry.Misses-before.Registry.Misses
	b.set("server.registry_hit_frac", ratio(hits, hits+misses), "frac")
	b.set("server.ok", float64(after.OK-before.OK), "count")
	b.set("server.shed", float64(after.Shed-before.Shed), "count")
	b.set("server.errors", float64(after.Errors-before.Errors), "count")
	b.set("server.rejected", float64(after.Rejected-before.Rejected), "count")
}

// setReconcile compares the ladder's prediction for the traced phase's
// ops (the sum of their layers' self times) with the phase's own wall
// time per op, the summed durations of its root "op" spans.
func (b *bench) setReconcile(predicted time.Duration, spans []span) {
	var wall int64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" {
			wall += s.End - s.Start
		}
	}
	b.set("trace.reconcile_gap_frac", math.Abs(float64(predicted)-float64(wall))/float64(wall), "frac")
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds()
	}
	b.detail["e2e_self_s"] = self
	b.detail["reconcile"] = map[string]float64{"predicted_s": predicted.Seconds(), "wall_s": float64(wall) / 1e9}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sumSelf(m map[string]time.Duration) time.Duration {
	var t time.Duration
	for _, d := range m {
		t += d
	}
	return t
}

func sumValues(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// ladderResult is the ladder's per-input rung times and what it measured
// besides them.
type ladderResult struct {
	rungs   map[int]*rungTimes
	compile map[string]float64
}

// ladderReps is how often the ladder runs on each input.
const ladderReps = 3

// climb runs every item up the layer ladder and sets the per-layer
// metrics that come from it.
func (b *bench) climb(d *daemon, fromDisk bool, items []*item) (*ladderResult, error) {
	sched := parallel.NewScheduler(0, 8)
	defer sched.Close()
	hc := newClient()
	defer hc.CloseIdleConnections()
	tr := newTracer()
	l := &ladder{in: b.in, d: d, hc: hc, fromDisk: fromDisk, reps: ladderReps, tr: tr, sched: sched,
		engines: map[string]*engines{}, buf: make([]byte, chunkSize), resp: make([]byte, readBuf)}
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	res := &ladderResult{rungs: map[int]*rungTimes{}, compile: map[string]float64{}}
	var ckpt, resume, size []float64
	for _, it := range items {
		rt, err := l.run(it)
		if err != nil {
			return nil, err
		}
		res.rungs[it.ID] = rt
		for i := 0; i < ladderReps; i++ {
			c, r, n, err := l.cursor(it)
			if err != nil {
				return nil, err
			}
			ckpt, resume, size = append(ckpt, float64(c)/1e3), append(resume, float64(r)/1e3), append(size, float64(n))
		}
	}
	for src, e := range l.engines {
		res.compile[src] = e.compile.Seconds()
	}
	b.set("streamtok.checkpoint_us", median(ckpt), "us")
	b.set("streamtok.resume_us", median(resume), "us")
	b.set("machinefile.cursor_bytes", median(size), "B")

	ov, err := l.requestOverhead(items[0], 200)
	if err != nil {
		return nil, err
	}
	b.set("server.request_overhead_us", float64(ov)/1e3, "us")
	do, err := l.doOverhead(5000)
	if err != nil {
		return nil, err
	}
	b.set("parallel.do_overhead_us", float64(do)/1e3, "us")
	if b.wl == "file-docs" {
		m1, err := d.metrics()
		if err != nil {
			return nil, err
		}
		b.setServer(m0, m1)
	}

	// Per-layer costs over every input, as sums of times over sums of
	// work, so long inputs weigh by their size.
	var bytesAll, pieces, srvTokens, vBytes, vPieces float64
	var step, feed, emit, batch, driver, bin, ndjson, pretok, encode time.Duration
	for _, rt := range res.rungs {
		t := rt.times
		bytesAll += float64(rt.item.Size)
		pieces += float64(rt.pieces)
		step += t["tokdfa.step"]
		feed += t["core.feed"]
		emit += t["core.emit"] - t["core.feed"]
		batch += t["core.feedbatch"] - t["core.feed"]
		below := t["core.emit"]
		if rt.item.Source == vocabName {
			below = t["bpe.stream"]
			vBytes += float64(rt.item.Size)
			vPieces += float64(rt.pieces)
			pretok += t["core.feed"]
			encode += t["bpe.stream"] - t["core.feed"]
		}
		driver += t["streamtok.tokenize"] - below
		if _, ok := t["server.bin"]; ok {
			srvTokens += float64(rt.item.Want.Tokens)
			bin += t["server.bin"] - below
			ndjson += t["server.ndjson"] - t["server.bin"]
		}
	}
	b.set("tokdfa.step_ns_per_byte", float64(step)/bytesAll, "ns/B")
	b.set("core.feed_ns_per_byte", float64(feed)/bytesAll, "ns/B")
	b.set("core.emit_ns_per_token", float64(emit)/pieces, "ns/token")
	b.set("core.feedbatch_ns_per_token", float64(batch)/pieces, "ns/token")
	b.set("streamtok.driver_ns_per_byte", float64(driver)/bytesAll, "ns/B")
	b.set("server.bin_ns_per_token", float64(bin)/srvTokens, "ns/token")
	b.set("server.ndjson_ns_per_token", float64(ndjson)/srvTokens, "ns/token")
	b.set("bpe.pretok_ns_per_byte", float64(pretok)/vBytes, "ns/B")
	b.set("bpe.encode_ns_per_piece", float64(encode)/vPieces, "ns/piece")
	if _, ok := b.res.Metrics["bpe.cache_hit_frac"]; !ok {
		// No vocabulary served in the workload itself: the ratios come
		// from the ladder's own bpe stream rung.
		e := l.engines[vocabName]
		p, f := e.bt.Counters()
		h, m, ev := e.bt.CacheCounters()
		b.setBPE(engineStats{BPEPieces: p, BPEFallbacks: f, BPECacheHits: h, BPECacheMisses: m,
			BPECacheEvictions: ev, VocabBytes: uint64(vBytes) * ladderReps})
	}

	for _, f := range l.failures {
		b.problem(f)
	}
	b.res.Attempted += l.checks
	b.res.Failed += len(l.failures)
	b.spans["ladder"] = tr.snapshot()
	rungs := map[string]map[string]float64{}
	for id, rt := range res.rungs {
		r := map[string]float64{}
		for name, d := range rt.times {
			r[name] = d.Seconds()
		}
		rungs[fmt.Sprint(id)] = r
	}
	b.detail["ladder_rungs_s"] = rungs
	return res, nil
}
