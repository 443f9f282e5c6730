package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// op is one unit of client work: a single request, or a resume pair (a
// ?hold=1 request for a prefix of the body, then a ?cursor= request for
// the rest) whose token streams must concatenate to the single-shot one.
type op struct {
	item  *item
	mode  string // "bin", "ndjson" or "resume"
	calls []call
	split int // resume pairs: bytes sent by the hold request
}

// opResult is what the load generator saw of one op.
type opResult struct {
	item   int
	mode   string
	sent   time.Time
	first  time.Time // first token record; zero when none arrived
	end    time.Time
	bytes  int // input bytes the op sent
	tokens int // token records it received
	fail   string
	// lag is how long the client took to send the op after its previous
	// op ended.
	lag time.Duration
}

// sourceQuery selects an item's source on /tokenize.
func sourceQuery(src string) string {
	if i, ok := isAdhoc(src); ok {
		return adhocQuery(i)
	}
	if src == vocabName {
		return "vocab=" + vocabName
	}
	return "grammar=" + src
}

// withText reports whether NDJSON requests for src ask for token text:
// grammar requests do, as a pipeline stage consuming tokens would;
// vocab requests get ranks only.
func withText(src string) bool { return src != vocabName }

// newOp builds the requests of one op.
func newOp(it *item, mode string, rng *rand.Rand) op {
	q := sourceQuery(it.Source)
	nd := call{query: q, body: it.data}
	if withText(it.Source) {
		nd.query += "&text=1"
	}
	o := op{item: it, mode: mode}
	switch mode {
	case "bin":
		o.calls = []call{{query: q + "&format=bin", body: it.data, bin: true}}
	case "ndjson":
		o.calls = []call{nd}
	case "resume":
		o.split = 1 + rng.Intn(len(it.data)-1)
		hold, rest := nd, nd
		hold.query += "&hold=1"
		hold.body, rest.body = it.data[:o.split], it.data[o.split:]
		o.calls = []call{hold, rest}
	}
	return o
}

// mixEntry is one part of the serve-grammars request mix: an item kind,
// the framing it is requested in, and its weight in every block of 100
// ops.
type mixEntry struct {
	kind, mode string
	weight     int
}

// serveMix is the serve-grammars request mix. Its parts are the ones the
// workload is defined by; the weights are an assumption, as no traffic
// description exists to take them from. The whole-body framings get the
// most (NDJSON slightly ahead of binary, as token text is the default a
// pipeline stage asks for), small requests come next as the common case
// of interactive callers, and the kinds that exercise a special path
// (long tokens, resume pairs, ad-hoc grammars) get enough to be measured
// in every run without dominating it.
var serveMix = []mixEntry{
	{"body", "ndjson", 30}, // 256 KiB log/json with token text
	{"body", "bin", 25},    // the same bodies, binary framing
	{"long", "bin", 10},    // 1 KiB-64 KiB tokens: accel and live carry
	{"small", "ndjson", 20},
	{"body", "resume", 10},
	{"adhoc", "ndjson", 5},
}

// opSequence is the seeded op order of serve-grammars. Both clients draw from
// it in turn. Ops come in blocks of 100 that hold each mix entry exactly
// its weight times, in seeded order, and each kind cycles through its
// items in a seeded order, so every run and every seed sees the same
// mix and the same items equally often; the seed changes only contents
// and order.
func opSequence(in *inputs, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x0905))
	var block []mixEntry
	for _, m := range serveMix {
		for i := 0; i < m.weight; i++ {
			block = append(block, m)
		}
	}
	order := map[string][]*item{}
	next := map[string]int{}
	ops := make([]op, 0, n)
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, m := range block {
			items, ok := order[m.kind]
			if !ok {
				items = in.ofKind(m.kind)
				rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
				order[m.kind] = items
			}
			it := items[next[m.kind]%len(items)]
			next[m.kind]++
			ops = append(ops, newOp(it, m.mode, rng))
		}
	}
	return ops[:n]
}

// warmOps returns every item once in every mode the mix uses for its
// kind, so pools, the registry and ad-hoc compilations are warm before
// timing.
func warmOps(in *inputs, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for _, m := range serveMix {
		for _, it := range in.ofKind(m.kind) {
			ops = append(ops, newOp(it, m.mode, rng))
		}
	}
	return ops
}

// runOp sends o and verifies its output. tr records one "op" span with
// an "http.request" child per request, each split into the wait for the
// first token record and the rest of the stream.
func runOp(hc *http.Client, base string, o *op, tr *tracer, buf []byte) opResult {
	res := opResult{item: o.item.ID, mode: o.mode, sent: time.Now()}
	var st stream
	var reqs [][3]time.Time
	var rp reply
	cursor := ""
	for i := range o.calls {
		c := &o.calls[i]
		t0 := time.Now()
		var err error
		rp, err = post(hc, base, c, cursor, &st, buf)
		res.bytes += len(c.body)
		if res.first.IsZero() {
			res.first = rp.first
		}
		reqs = append(reqs, [3]time.Time{t0, rp.first, rp.end})
		if err != nil {
			res.fail = err.Error()
			break
		}
		if res.fail = checkSummary(o, i, c, rp); res.fail != "" {
			break
		}
		cursor = rp.sum.Cursor
	}
	res.end = time.Now()
	res.tokens = st.records
	if res.fail == "" {
		res.fail = checkStream(o, st, rp.sum)
	}
	if tr != nil {
		root := tr.record("op", 0, res.sent, res.end)
		for _, r := range reqs {
			id := tr.record("http.request", root, r[0], r[2])
			if !r[1].IsZero() {
				tr.record("http.first_record", id, r[0], r[1])
				tr.record("http.stream", id, r[1], r[2])
			}
		}
	}
	return res
}

// checkSummary applies the per-request rules to call i of o: the summary
// counts what arrived, there is no error, and the stream closed complete
// or, for the hold half of a resume pair, suspended with a cursor.
func checkSummary(o *op, i int, c *call, rp reply) string {
	s := rp.sum
	switch {
	case s.Tokens != rp.records:
		return fmt.Sprintf("summary says %d tokens, %d records arrived", s.Tokens, rp.records)
	case s.Error != "":
		return "server error: " + s.Error
	case !s.Done:
		return "summary without done"
	case o.mode == "resume" && i == 0:
		if s.Cursor == "" {
			return "hold request returned no cursor"
		}
		return ""
	case o.mode == "resume" && s.Offset != int64(o.split):
		return fmt.Sprintf("resumed at offset %d, want %d", s.Offset, o.split)
	case !c.bin && !s.Complete:
		return "complete:false"
	case !c.bin && s.BytesIn != int64(len(c.body)):
		return fmt.Sprintf("server read %d bytes of %d", s.BytesIn, len(c.body))
	case o.mode == "ndjson" && s.TokenBytes != o.item.Wire.TokenBytes:
		return fmt.Sprintf("summary token_bytes %d, want %d", s.TokenBytes, o.item.Wire.TokenBytes)
	}
	return ""
}

// checkStream compares everything an op's responses delivered with the
// item's expected output.
func checkStream(o *op, st stream, last ndjsonSummary) string {
	want := o.item.Wire.NDJSON
	if o.mode == "bin" {
		want = o.item.Wire.Bin
	}
	switch {
	case st.records != o.item.Want.Tokens:
		return fmt.Sprintf("got %d tokens, want %d", st.records, o.item.Want.Tokens)
	case st.crc != want:
		return fmt.Sprintf("%s response CRC %08x, want %08x", o.mode, st.crc, want)
	case last.Rest != o.item.Want.Rest:
		return fmt.Sprintf("rest %d, want %d", last.Rest, o.item.Want.Rest)
	}
	return ""
}

// readBuf is each client's response read buffer; an NDJSON line must
// fit in it.
const readBuf = 1 << 20

// loadResult is one timed phase of a serving workload.
type loadResult struct {
	ops      []opResult
	windows  []window
	wall     time.Duration // the windows' summed length
	genCPU   time.Duration
	progCPU  time.Duration
	before   *serverMetrics
	after    *serverMetrics
	clientIn uint64 // bytes the server accepted, by the client's count
	clientTk uint64 // token records received
}

// calWindow is how long the clients run between calibration slices.
const calWindow = time.Second

// window is a stretch of a timed phase between two calibration slices,
// and the factor that scales its times to reference host speed. Every
// op starts and ends inside one window.
type window struct {
	start, end time.Time
	scale      float64
}

// closedLoop runs one timed phase: it scrapes /metrics, starts clients
// goroutines that each send the next op of the sequence as soon as their
// previous one finished, stops them after seconds, scrapes again, and
// measures the generator's and the daemon's CPU time in between. Every
// calWindow the clients pause: once the ops in flight have finished, a
// calibration slice runs on every core while the daemon is idle.
func closedLoop(d *daemon, cal *calibrator, ops []op, clients int, seconds time.Duration, tr *tracer) (*loadResult, error) {
	lr := &loadResult{}
	var err error
	if lr.before, err = d.metrics(); err != nil {
		return nil, err
	}
	slice := settledSlice(cal)
	gen0, prog0 := selfCPU(), cpuTime(d.cmd.Process.Pid)
	var calCPU time.Duration
	var (
		gate   sync.RWMutex // clients hold it shared for each op; a slice holds it alone
		next   atomic.Int64
		stop   atomic.Bool
		resume atomic.Int64 // when the clients last resumed after a slice, ns since t0
		wg     sync.WaitGroup
	)
	results := make([][]opResult, clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			buf := make([]byte, readBuf)
			prev := t0
			for {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					return
				}
				// The lag is the generator's own delay: a pause for a
				// slice is not part of it.
				if r := t0.Add(time.Duration(resume.Load())); r.After(prev) {
					prev = r
				}
				o := &ops[int(next.Add(1)-1)%len(ops)]
				r := runOp(hc, d.base, o, tr, buf)
				gate.RUnlock()
				r.lag, prev = r.sent.Sub(prev), r.end
				results[c] = append(results[c], r)
			}
		}(c)
	}
	start := t0
	for done := false; !done; {
		time.Sleep(min(calWindow, time.Until(t0.Add(seconds))))
		gate.Lock()
		end := time.Now()
		done = !end.Before(t0.Add(seconds))
		stop.Store(done)
		runtime.GC()
		s0 := time.Now()
		after := cal.slice(clients)
		calCPU += time.Since(s0) * time.Duration(clients)
		lr.windows = append(lr.windows, window{start: start, end: end, scale: scaleFor(slice, after)})
		lr.wall += end.Sub(start)
		slice, start = after, time.Now()
		resume.Store(int64(start.Sub(t0)))
		gate.Unlock()
	}
	wg.Wait()
	lr.genCPU, lr.progCPU = selfCPU()-gen0-calCPU, cpuTime(d.cmd.Process.Pid)-prog0
	if lr.after, err = d.metrics(); err != nil {
		return nil, err
	}
	for _, rs := range results {
		lr.ops = append(lr.ops, rs...)
	}
	for _, r := range lr.ops {
		lr.clientIn += uint64(r.bytes)
		lr.clientTk += uint64(r.tokens)
	}
	return lr, nil
}

// settledSlice runs a calibration slice on every core the clients use
// once the generator's own garbage collection, which would otherwise run
// beside it, has finished.
func settledSlice(cal *calibrator) time.Duration {
	runtime.GC()
	return cal.slice(clients)
}

// reconcile checks the server's own counts of the phase against the
// client's: every byte sent was read and every token written arrived.
func (lr *loadResult) reconcile() string {
	in := lr.after.BytesIn - lr.before.BytesIn
	tk := lr.after.TokensOut - lr.before.TokensOut
	if in != lr.clientIn || tk != lr.clientTk {
		return fmt.Sprintf("server counted %d bytes in and %d tokens out, the client %d and %d",
			in, tk, lr.clientIn, lr.clientTk)
	}
	return ""
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime is procCPU, or 0 when the process cannot be read.
func cpuTime(pid int) time.Duration {
	t, err := procCPU(pid)
	if err != nil {
		return 0
	}
	return t
}
