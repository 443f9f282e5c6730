package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamtok"
	"streamtok/internal/core"
	"streamtok/internal/parallel"
)

// Config tunes the serving layer. Every zero value means the documented
// default, so Config{Registry: reg} is a working production config.
type Config struct {
	// Registry resolves and caches grammars; required.
	Registry *Registry
	// MaxBodyBytes caps one request's input, enforced at chunk
	// boundaries (default 64 MiB). Requests may lower it per call with
	// ?max_bytes=, never raise it.
	MaxBodyBytes int64
	// Deadline caps one request's wall time, enforced at chunk
	// boundaries via context (default 30s). ?deadline= may lower it.
	Deadline time.Duration
	// MaxConcurrent caps tokenizing requests in flight; excess load is
	// shed with 429 + Retry-After (default 4×GOMAXPROCS).
	MaxConcurrent int
	// RetryAfter is the hint attached to 429/503 responses (default 1s).
	RetryAfter time.Duration
	// DisableAdhoc rejects ?rule= compile-on-demand grammars, for
	// deployments that only serve provisioned machines.
	DisableAdhoc bool
}

// Server is the streamtokd serving core: an http.Handler plus the drain
// and metrics machinery around it. Create with New, expose Handler(),
// and on shutdown call BeginDrain then wait (http.Server.Shutdown or
// Drain) so in-flight streams finish.
type Server struct {
	cfg   Config
	reg   *Registry
	sched *parallel.Scheduler
	// frames pools the per-response output writers (see frame).
	frames sync.Pool
	mux    *http.ServeMux
	start  time.Time
	// retryAfter is the Retry-After header value of 429s and 503s.
	retryAfter string

	draining atomic.Bool

	// Request-level counters; per-grammar token/byte detail lives in
	// each tokenizer's observability aggregate.
	reqs     atomic.Uint64 // tokenize requests admitted past the semaphore
	ok       atomic.Uint64 // requests that streamed to a clean summary
	shed     atomic.Uint64 // 429s from the concurrency cap
	unavail  atomic.Uint64 // 503s while draining
	rejected atomic.Uint64 // grammar rejections (4xx before streaming)
	errs     atomic.Uint64 // streams cut by deadline/limit/body errors
	panics   atomic.Uint64 // handler panics caught by the isolation wrapper

	tokensOut atomic.Uint64 // tokens written to clients
	bytesIn   atomic.Uint64 // body bytes fed to tokenizers
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		// Shard-per-core admission: active streams are sharded across
		// GOMAXPROCS workers with per-worker run queues and work
		// stealing, replacing flat semaphore admission. The scheduler's
		// capacity is the old semaphore's depth, so shedding semantics
		// (429 past MaxConcurrent) are unchanged.
		sched:      parallel.NewScheduler(runtime.GOMAXPROCS(0), cfg.MaxConcurrent),
		mux:        http.NewServeMux(),
		start:      time.Now(),
		retryAfter: strconv.Itoa(int((cfg.RetryAfter + time.Second - 1) / time.Second)),
	}
	s.frames.New = newFrame
	s.mux.HandleFunc("/tokenize", s.handleTokenize)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Registry returns the server's grammar registry.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the server's http.Handler, wrapped in per-request
// panic isolation: a panicking handler is counted, answered with 500
// when the response has not started, and never takes the process down.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				// If the response has not been written this sends a clean
				// 500; mid-stream it fails silently and the connection is
				// cut, which the client sees as a truncated stream with
				// no summary line — detectably incomplete.
				http.Error(w, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// BeginDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, and new /tokenize requests are
// refused with 503 + Retry-After. In-flight streams are untouched.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of tokenize requests currently holding a
// concurrency slot.
func (s *Server) InFlight() int { return s.sched.InFlight() }

// Close stops the shard workers. Call it after the server has drained
// and stopped accepting requests (streamtokd runs it after Shutdown);
// it is not required for correctness, only goroutine hygiene.
func (s *Server) Close() { s.sched.Close() }

// Drain runs the graceful sequence: BeginDrain, then wait until every
// in-flight stream finishes or ctx expires, returning the final metrics
// snapshot either way. streamtokd calls this on SIGTERM alongside
// http.Server.Shutdown (which performs the connection-level wait).
func (s *Server) Drain(ctx context.Context) (Metrics, error) {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.InFlight() > 0 {
		select {
		case <-ctx.Done():
			return s.MetricsSnapshot(), ctx.Err()
		case <-tick.C:
		}
	}
	return s.MetricsSnapshot(), nil
}

// errTooLarge cuts a stream that exceeded its byte budget; it carries
// the limit for the client-facing message.
type errTooLarge struct{ limit int64 }

func (e errTooLarge) Error() string {
	return fmt.Sprintf("request body exceeds %d-byte limit (truncating at a chunk boundary)", e.limit)
}

// handleTokenize streams the tokenization of the request body:
//
//	POST /tokenize?grammar=json             catalog or pinned machine grammar
//	POST /tokenize?rule=[0-9]%2B&rule=[ ]%2B  ad-hoc rules (repeated, URL-encoded)
//	POST /tokenize?vocab=cl100k             pinned BPE vocabulary ("rule" is the rank)
//
// Optional: ?deadline= and ?max_bytes= lower the server limits for this
// request; ?text=1 adds token text to NDJSON lines; ?count=1 suppresses
// per-token lines (summary only); ?format=bin (or Accept:
// application/x-streamtok-bin) selects 24-byte binary records with
// summary trailers instead of NDJSON.
//
// Resumable streams: ?cursor=BLOB (base64url, no padding) resumes a
// stream suspended by an earlier request instead of restarting it —
// token offsets continue where the suspended stream left off, and the
// follow-up body continues from the suspended stream's fed offset (its
// bytes_in total) because the cursor itself carries the fed-but-
// undelivered tail. ?hold=1 suspends the stream at end of body instead
// of closing it, returning the cursor on the summary line; a stream cut
// by a deadline or byte budget returns a cursor the same way, so the
// client can reconnect and resume instead of re-uploading.
func (s *Server) handleTokenize(w http.ResponseWriter, r *http.Request) {
	// A cut stream (byte budget, deadline, dead input) returns with its
	// body unread. Under full duplex net/http leaves that body alone
	// until the handler is done and then drains it after stopping the
	// connection's background reader; reaching EOF there restarts the
	// reader under the next keep-alive read, which panics ("invalid
	// concurrent Body.Read call") and kills the connection. Closing the
	// body here does the same bounded drain (up to 256 KiB, beyond that
	// the connection closes after the reply) while the handler still
	// owns the connection. Deferred first, it runs last: the stream and
	// its concurrency slot are released before the drain waits on the
	// client.
	defer r.Body.Close()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a body to tokenize", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.unavail.Add(1)
		w.Header().Set("Retry-After", s.retryAfter)
		http.Error(w, "draining: not accepting new streams", http.StatusServiceUnavailable)
		return
	}
	h, ok := s.sched.Admit()
	if !ok {
		s.shed.Add(1)
		w.Header().Set("Retry-After", s.retryAfter)
		http.Error(w, "at capacity", http.StatusTooManyRequests)
		return
	}
	defer h.Finish()
	s.reqs.Add(1)

	q := r.URL.Query()
	ent, err := s.resolveGrammar(q)
	if err != nil {
		s.rejected.Add(1)
		var rej *RejectError
		if errors.As(err, &rej) {
			// 422: the request was well-formed, the grammar is the
			// problem; the body is the lint diagnostic.
			http.Error(w, rej.Error(), http.StatusUnprocessableEntity)
			return
		}
		var nf *NotFoundError
		if errors.As(err, &nf) {
			// 404 with the loaded catalog in the body, so the client can
			// discover what this server actually serves.
			http.Error(w, nf.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	maxBytes, deadline, perr := s.requestLimits(q)
	if perr != nil {
		s.rejected.Add(1)
		http.Error(w, perr.Error(), http.StatusBadRequest)
		return
	}
	binaryOut := q.Get("format") == "bin" || r.Header.Get("Accept") == "application/x-streamtok-bin"
	withText := q.Get("text") == "1"
	countOnly := q.Get("count") == "1"
	hold := q.Get("hold") == "1"

	// Acquire the stream: fresh, or resumed from a suspended-stream
	// cursor. Cursor refusals happen here, before any streaming output,
	// so the client gets a clean status code: 400 for transport-level
	// garbage, 422 for a blob that decodes but fails validation (wrong
	// grammar hash, tampered bytes, failed replay).
	var st *streamtok.Streamer
	if c := q.Get("cursor"); c != "" {
		blob, derr := base64.RawURLEncoding.DecodeString(c)
		if derr != nil {
			s.rejected.Add(1)
			http.Error(w, "bad cursor: not unpadded base64url", http.StatusBadRequest)
			return
		}
		var rerr error
		st, rerr = streamtok.Resume(ent.Tok, blob)
		if rerr != nil {
			s.rejected.Add(1)
			http.Error(w, rerr.Error(), http.StatusUnprocessableEntity)
			return
		}
	} else {
		st = ent.Tok.AcquireStreamer()
	}
	// Both branches hand over an owned streamer (Resume releases
	// internally on refusal), so the release pairs with the acquire
	// here, after the response is fully written.
	defer ent.Tok.ReleaseStreamer(st)

	// The whole point of this endpoint is interleaving body reads with
	// response writes; HTTP/1 forbids that by default and would close
	// the body at the first flush. HTTP/2 always permits it.
	_ = http.NewResponseController(w).EnableFullDuplex()

	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	if binaryOut {
		s.streamBinary(ctx, w, r, ent, st, h, maxBytes, hold)
		return
	}
	s.streamNDJSON(ctx, w, r, ent, st, h, maxBytes, hold, withText, countOnly)
}

// resolveGrammar picks the tokenization source from ?grammar=, ?rule=,
// or ?vocab= — exactly one of the three.
func (s *Server) resolveGrammar(q url.Values) (*Entry, error) {
	name := q.Get("grammar")
	vocab := q.Get("vocab")
	rules := q["rule"]
	set := 0
	for _, chosen := range []bool{name != "", vocab != "", len(rules) > 0} {
		if chosen {
			set++
		}
	}
	if set > 1 {
		return nil, errors.New("pass exactly one of ?grammar=, ?rule=, or ?vocab=")
	}
	switch {
	case name != "":
		return s.reg.Lookup(name)
	case vocab != "":
		return s.reg.LookupVocab(vocab)
	case len(rules) > 0:
		if s.cfg.DisableAdhoc {
			return nil, errors.New("ad-hoc ?rule= grammars are disabled on this server")
		}
		return s.reg.Compile(rules)
	default:
		return nil, errors.New("no source: pass ?grammar=NAME, ?vocab=NAME, or one ?rule= per rule")
	}
}

// requestLimits applies the per-request ?max_bytes= and ?deadline=
// overrides, which may lower the server limits but never raise them.
func (s *Server) requestLimits(q url.Values) (maxBytes int64, deadline time.Duration, err error) {
	maxBytes, deadline = s.cfg.MaxBodyBytes, s.cfg.Deadline
	if v := q.Get("max_bytes"); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || n <= 0 {
			return 0, 0, fmt.Errorf("bad max_bytes %q", v)
		}
		if n < maxBytes {
			maxBytes = n
		}
	}
	if v := q.Get("deadline"); v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d <= 0 {
			return 0, 0, fmt.Errorf("bad deadline %q (want a Go duration like 500ms)", v)
		}
		if d < deadline {
			deadline = d
		}
	}
	return maxBytes, deadline, nil
}

// streamNDJSON tokenizes the body into newline-delimited JSON: one
// object per token and exactly one summary object at the end — either
// {"done":true,...} or {"error":...,...} — so a client can always tell
// a complete stream from a cut one. Resumed streams add "offset" (the
// stream position this request continued from); suspended streams —
// ?hold=1, or a stream cut mid-flight — add "cursor", the blob a
// follow-up request passes as ?cursor= to continue.
func (s *Server) streamNDJSON(ctx context.Context, w http.ResponseWriter, r *http.Request, ent *Entry, st *streamtok.Streamer, h *parallel.StreamHandle, maxBytes int64, hold, withText, countOnly bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Streamtok-Grammar", ent.Name)
	f := s.acquireFrame(w)
	defer s.releaseFrame(f)

	nw := newNDJSONWriter(f, ent, withText, countOnly)
	emit := nw.token
	res := s.drive(ctx, r, st, h, maxBytes, hold,
		func(chunk []byte) { st.Feed(chunk, emit) },
		func() int { return st.Close(emit) }, f.flush)

	// Summary line. Written even after an error: the stream stays valid
	// NDJSON and the client learns exactly how far the server got.
	line := f.scratch[:0]
	if res.err != nil {
		line = append(line, `{"error":`...)
		line = appendJSONText(line, []byte(res.err.Error()))
	} else {
		line = append(line, `{"done":true`...)
	}
	line = append(line, `,"tokens":`...)
	line = strconv.AppendUint(line, nw.tokens, 10)
	line = append(line, `,"token_bytes":`...)
	line = strconv.AppendUint(line, nw.tokenBytes, 10)
	line = append(line, `,"bytes_in":`...)
	line = strconv.AppendInt(line, res.consumed, 10)
	line = append(line, `,"rest":`...)
	line = strconv.AppendInt(line, int64(res.rest), 10)
	if res.base > 0 {
		line = append(line, `,"offset":`...)
		line = strconv.AppendInt(line, res.base, 10)
	}
	if res.cursor != nil {
		line = append(line, `,"cursor":"`...)
		line = base64.RawURLEncoding.AppendEncode(line, res.cursor)
		line = append(line, '"')
	}
	line = append(line, `,"complete":`...)
	line = strconv.AppendBool(line, res.err == nil && int64(res.rest) == res.base+res.consumed)
	line = append(line, '}', '\n')
	f.bw.Write(line)
	f.scratch = line
	f.flush()
	s.finishStream(nw.tokens, uint64(res.consumed), res.err)
}

// streamBinary tokenizes the body into fixed 24-byte little-endian
// records (start int64, end int64, rule int32, reserved int32) with the
// summary in HTTP trailers: X-Streamtok-Tokens, X-Streamtok-Rest,
// X-Streamtok-Error (empty on success), and X-Streamtok-Cursor (the
// base64url resume blob, when the stream was suspended).
func (s *Server) streamBinary(ctx context.Context, w http.ResponseWriter, r *http.Request, ent *Entry, st *streamtok.Streamer, h *parallel.StreamHandle, maxBytes int64, hold bool) {
	w.Header().Set("Content-Type", "application/x-streamtok-bin")
	w.Header().Set("X-Streamtok-Grammar", ent.Name)
	w.Header().Set("Trailer", "X-Streamtok-Tokens, X-Streamtok-Rest, X-Streamtok-Error, X-Streamtok-Cursor")
	f := s.acquireFrame(w)
	defer s.releaseFrame(f)

	// Records carry offsets only, so the stream runs on FeedBatch: each
	// batch is written as whole records straight into the buffer.
	bin := &binWriter{bw: f.bw}
	sink := bin.batch
	res := s.drive(ctx, r, st, h, maxBytes, hold,
		func(chunk []byte) { st.FeedBatch(chunk, sink) },
		func() int { return st.CloseBatch(sink) }, f.flush)
	f.bw.Flush()
	w.Header().Set("X-Streamtok-Tokens", strconv.FormatUint(bin.tokens, 10))
	w.Header().Set("X-Streamtok-Rest", strconv.Itoa(res.rest))
	if res.err != nil {
		w.Header().Set("X-Streamtok-Error", res.err.Error())
	} else {
		w.Header().Set("X-Streamtok-Error", "")
	}
	if res.cursor != nil {
		w.Header().Set("X-Streamtok-Cursor", base64.RawURLEncoding.EncodeToString(res.cursor))
	} else {
		w.Header().Set("X-Streamtok-Cursor", "")
	}
	s.finishStream(bin.tokens, uint64(res.consumed), res.err)
}

// streamResult is drive's summary of one driven stream.
type streamResult struct {
	consumed int64  // body bytes fed during this request
	base     int64  // stream offset this request resumed from (0 = fresh)
	rest     int    // first stream offset not covered by a delivered token
	cursor   []byte // resume blob when the stream was suspended, else nil
	err      error  // terminal error (nil for a clean close or suspension)
}

// drive pumps the request body through the stream on core.Drive, the
// library's read loop: the handler goroutine keeps the I/O (body reads,
// response flushes) while every feed and the closing closeStream run on
// the stream's shard worker via h.Do, so tokenization CPU stays on the
// shard the scheduler pinned the stream to. feed and closeStream are the
// framing's Feed/Close pair (per-token emit or batches); closeStream
// returns the stream's rest.
//
// Termination is three-way. Dead input (the remaining bytes match no
// rule) ends the request with no error and no cursor — rest points at
// the dead byte and resuming could never progress. A clean end of body
// closes the stream and drains the delayed tail — unless ?hold=1, which
// suspends instead. A cut (deadline, byte budget, body read error) also
// suspends: the error is reported, but the stream's state up to the last
// chunk boundary is preserved in a cursor so the client can resume
// instead of re-uploading.
func (s *Server) drive(ctx context.Context, r *http.Request, st *streamtok.Streamer, h *parallel.StreamHandle, maxBytes int64, hold bool, feed func(chunk []byte), closeStream func() int, flush func()) (res streamResult) {
	res.base = int64(st.Offset())

	// One closure for the whole request: chunk is rebound per read, so
	// the steady-state loop allocates nothing.
	var chunk []byte
	feedChunk := func() { feed(chunk) }

	res.err = core.Drive(ctx, st, r.Body, 0, func(c []byte) error {
		chunk = c
		h.Do(feedChunk)
		res.consumed += int64(len(c))
		if res.consumed > maxBytes {
			// Budget first, stop second: an over-budget chunk is cut
			// even when the stream also died inside it.
			return errTooLarge{limit: maxBytes}
		}
		if !st.Stopped() {
			flush()
		}
		return nil
	})
	switch {
	case res.err != nil || hold:
		return s.suspend(st, h, res)
	case st.Stopped():
		// Dead input is a property of the stream, not the transport:
		// report how far tokenization got (the client sees
		// complete=false) and do not offer a cursor.
		res.rest = st.Rest()
	default:
		h.Do(func() { res.rest = closeStream() })
	}
	return res
}

// suspend checkpoints a held or cut stream into a resume cursor. rest
// becomes the pending token's start — the first byte not covered by a
// delivered token, which is exactly the offset a resumed stream
// continues from. Checkpointing runs on the shard worker: it replays the
// pending bytes to verify the blob, which is CPU work.
func (s *Server) suspend(st *streamtok.Streamer, h *parallel.StreamHandle, res streamResult) streamResult {
	if st.Stopped() {
		// The stream died, in the cut chunk or before the hold:
		// nothing to resume.
		res.rest = st.Rest()
		return res
	}
	var blob []byte
	var cerr error
	h.Do(func() { blob, cerr = st.Checkpoint() })
	res.rest = st.PendingStart()
	if cerr == nil {
		res.cursor = blob
	} else if res.err == nil {
		res.err = cerr
	}
	return res
}

// finishStream folds one finished request into the server counters.
func (s *Server) finishStream(tokens, bytesIn uint64, err error) {
	s.tokensOut.Add(tokens)
	s.bytesIn.Add(bytesIn)
	if err != nil {
		s.errs.Add(1)
	} else {
		s.ok.Add(1)
	}
}

// GrammarMetrics is one resident entry's slice of /metrics — a grammar
// or a BPE vocabulary (Kind "vocab", VocabSize its token count).
// CompileMS is the entry's one-time build cost (Entry.CompileTime).
// Cert is the entry's verified resource certificate — the statically
// derived bounds its runtime counters (Stats) must stay under.
type GrammarMetrics struct {
	Name      string                 `json:"name"`
	Kind      string                 `json:"kind"`
	Hash      string                 `json:"hash"`
	VocabSize int                    `json:"vocab_size,omitempty"`
	CompileMS float64                `json:"compile_ms"`
	Engine    streamtok.EngineInfo   `json:"engine"`
	Cert      *streamtok.Certificate `json:"cert,omitempty"`
	Stats     streamtok.Stats        `json:"stats"`
}

// Metrics is the full /metrics document: server-level request counters
// plus each resident grammar's engine description and observability
// aggregate (the same JSON renderings tnd -json and streamtok -stats
// use).
type Metrics struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Draining      bool                `json:"draining"`
	InFlight      int                 `json:"inflight"`
	Capacity      int                 `json:"capacity"`
	Requests      uint64              `json:"requests"`
	OK            uint64              `json:"ok"`
	Shed          uint64              `json:"shed"`
	Unavailable   uint64              `json:"unavailable"`
	Rejected      uint64              `json:"rejected"`
	Errors        uint64              `json:"errors"`
	Panics        uint64              `json:"panics"`
	TokensOut     uint64              `json:"tokens_out"`
	BytesIn       uint64              `json:"bytes_in"`
	Scheduler     parallel.SchedStats `json:"scheduler"`
	Registry      RegistryStats       `json:"registry"`
	Grammars      []GrammarMetrics    `json:"grammars"`
}

// MetricsSnapshot assembles the current Metrics document.
func (s *Server) MetricsSnapshot() Metrics {
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		InFlight:      s.InFlight(),
		Capacity:      s.cfg.MaxConcurrent,
		Requests:      s.reqs.Load(),
		OK:            s.ok.Load(),
		Shed:          s.shed.Load(),
		Unavailable:   s.unavail.Load(),
		Rejected:      s.rejected.Load(),
		Errors:        s.errs.Load(),
		Panics:        s.panics.Load(),
		TokensOut:     s.tokensOut.Load(),
		BytesIn:       s.bytesIn.Load(),
		Scheduler:     s.sched.Stats(),
		Registry:      s.reg.Stats(),
	}
	for _, ent := range s.reg.Entries() {
		gm := GrammarMetrics{
			Name:      ent.Name,
			Kind:      "grammar",
			Hash:      ent.Hash,
			CompileMS: float64(ent.CompileTime) / float64(time.Millisecond),
			Engine:    ent.Tok.Engine(),
			Cert:      ent.Tok.Certificate(),
			Stats:     ent.Tok.AggregateStats(),
		}
		if ent.Vocab != nil {
			gm.Kind = "vocab"
			gm.VocabSize = ent.Vocab.Size()
		}
		m.Grammars = append(m.Grammars, gm)
	}
	return m
}

// PublishExpvar registers the live metrics document in the process-wide
// expvar registry under name (panics if taken, like expvar.Publish —
// call once per process).
func (s *Server) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return s.MetricsSnapshot() }))
}

// handleMetrics serves the JSON metrics document.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.MetricsSnapshot())
}

// handleStatusz serves the human-readable status page.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	m := s.MetricsSnapshot()
	state := "serving"
	if m.Draining {
		state = "draining"
	}
	fmt.Fprintf(w, "streamtokd %s, up %.1fs\n", state, m.UptimeSeconds)
	fmt.Fprintf(w, "inflight:   %d / %d\n", m.InFlight, m.Capacity)
	fmt.Fprintf(w, "requests:   %d admitted, %d ok, %d cut, %d shed, %d refused draining, %d rejected, %d panics\n",
		m.Requests, m.OK, m.Errors, m.Shed, m.Unavailable, m.Rejected, m.Panics)
	fmt.Fprintf(w, "volume:     %d tokens out, %d bytes in\n", m.TokensOut, m.BytesIn)
	fmt.Fprintf(w, "scheduler:  %d shards, %d dispatched, %d stolen\n",
		m.Scheduler.Workers, m.Scheduler.Dispatched, m.Scheduler.Stolen)
	fmt.Fprintf(w, "registry:   %d resident (%d pinned), %d hits, %d misses, %d evictions, %d rejects, %d recertified\n",
		m.Registry.Resident, m.Registry.Pinned, m.Registry.Hits, m.Registry.Misses,
		m.Registry.Evictions, m.Registry.Rejects, m.Registry.Recertified)
	if m.Registry.MemBudget > 0 {
		fmt.Fprintf(w, "budget:     %d B resident (%d B pinned) of %d B, %d budget rejects\n",
			m.Registry.ResidentBytes, m.Registry.PinnedBytes, m.Registry.MemBudget,
			m.Registry.BudgetRejects)
	}
	for _, g := range m.Grammars {
		fmt.Fprintf(w, "\n%s %s (%.12s)\n", g.Kind, g.Name, g.Hash)
		if g.VocabSize > 0 {
			fmt.Fprintf(w, "  vocab:    %d tokens\n", g.VocabSize)
		}
		fmt.Fprintf(w, "  engine:   %s\n", g.Engine)
		fmt.Fprintf(w, "  compile:  %.1f ms\n", g.CompileMS)
		if g.Cert != nil {
			fmt.Fprintf(w, "  cert:     %s\n", g.Cert)
		}
		fmt.Fprintf(w, "  latency:  p50 %d B, p99 %d B, max %d B past token end (bound K=%d)\n",
			g.Stats.LatencyQuantile(0.5), g.Stats.LatencyQuantile(0.99), g.Stats.MaxLatency(), g.Engine.K)
		fmt.Fprintf(w, "  streams:  %d started, %d done; %d tokens, %d bytes in\n",
			g.Stats.Streams, g.Stats.StreamsDone, g.Stats.TokensOut, g.Stats.BytesIn)
		if g.Stats.BPEPieces > 0 {
			fmt.Fprintf(w, "  bpe:      %d pieces, %d backtracks, %d fallbacks, cache %d hits / %d misses / %d evictions\n",
				g.Stats.BPEPieces, g.Stats.BPEBacktracks, g.Stats.BPEFallbacks,
				g.Stats.BPECacheHits, g.Stats.BPECacheMisses, g.Stats.BPECacheEvictions)
		}
	}
}

// handleHealthz reports admission state: 200 {"status":"ok"} while
// serving, 503 {"status":"draining"} once drain begins, with the queue
// depth (in-flight streams vs capacity) either way.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"status":%q,"inflight":%d,"capacity":%d}`+"\n",
		status, s.InFlight(), s.cfg.MaxConcurrent)
}
