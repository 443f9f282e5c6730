package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// tokenLine is one NDJSON token object as clients decode it.
type tokenLine struct {
	Start *int   `json:"start"`
	End   int    `json:"end"`
	Rule  int    `json:"rule"`
	Name  string `json:"name"`
	Text  string `json:"text"`

	// summary fields
	Done       *bool  `json:"done"`
	Error      string `json:"error"`
	Tokens     uint64 `json:"tokens"`
	TokenBytes uint64 `json:"token_bytes"`
	BytesIn    int64  `json:"bytes_in"`
	Rest       int    `json:"rest"`
	Offset     int64  `json:"offset"`
	Cursor     string `json:"cursor"`
	Complete   *bool  `json:"complete"`
}

// readNDJSON decodes a streamed response into token lines plus the
// mandatory final summary line.
func readNDJSON(t *testing.T, body io.Reader) (toks []tokenLine, summary tokenLine) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []tokenLine
	for sc.Scan() {
		var l tokenLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty response: no summary line")
	}
	last := lines[len(lines)-1]
	if last.Done == nil && last.Error == "" {
		t.Fatalf("last line is not a summary: %+v", last)
	}
	return lines[:len(lines)-1], last
}

func TestTokenizeNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := `{"k": [1, 2.5, true], "s": "hi"}`
	resp, err := http.Post(ts.URL+"/tokenize?grammar=json&text=1", "application/octet-stream", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if g := resp.Header.Get("X-Streamtok-Grammar"); g != "json" {
		t.Errorf("grammar header %q", g)
	}
	toks, sum := readNDJSON(t, resp.Body)
	if len(toks) == 0 {
		t.Fatal("no tokens streamed")
	}
	if sum.Done == nil || !*sum.Done || sum.Tokens != uint64(len(toks)) {
		t.Errorf("summary %+v does not reconcile with %d streamed tokens", sum, len(toks))
	}
	if sum.Complete == nil || !*sum.Complete {
		t.Errorf("input should tokenize completely: %+v", sum)
	}
	if sum.BytesIn != int64(len(input)) {
		t.Errorf("bytes_in = %d, want %d", sum.BytesIn, len(input))
	}
	// Token lines carry offsets, rule names, and (with text=1) the
	// original substring.
	var rebuilt strings.Builder
	for _, tk := range toks {
		if tk.Start == nil || tk.Name == "" {
			t.Fatalf("token line missing fields: %+v", tk)
		}
		if got := input[*tk.Start:tk.End]; got != tk.Text {
			t.Errorf("text %q, want %q", tk.Text, got)
		}
		rebuilt.WriteString(tk.Text)
	}
	if rebuilt.String() != input {
		t.Errorf("concatenated tokens %q != input", rebuilt.String())
	}
}

func TestTokenizeAdhocRules(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	u := ts.URL + "/tokenize?" + url.Values{"rule": {"[0-9]+", "[ ]+"}}.Encode()
	resp, err := http.Post(u, "", strings.NewReader("12 345 6"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	toks, sum := readNDJSON(t, resp.Body)
	if len(toks) != 5 || sum.Error != "" {
		t.Errorf("got %d tokens (want 5), summary %+v", len(toks), sum)
	}
}

func TestTokenizeCountOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/tokenize?grammar=csv&count=1", "", strings.NewReader("a,b,c\n1,2,3\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	toks, sum := readNDJSON(t, resp.Body)
	if len(toks) != 0 {
		t.Errorf("count=1 should suppress token lines, got %d", len(toks))
	}
	if sum.Tokens == 0 || sum.Done == nil || !*sum.Done {
		t.Errorf("summary %+v", sum)
	}
}

func TestTokenizeBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := "aa,bb,cc\n"
	resp, err := http.Post(ts.URL+"/tokenize?grammar=csv&format=bin", "", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-streamtok-bin" {
		t.Errorf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw)%24 != 0 {
		t.Fatalf("body length %d is not a whole number of 24-byte records", len(raw))
	}
	n := len(raw) / 24
	if n == 0 {
		t.Fatal("no records")
	}
	prevEnd := int64(0)
	for i := 0; i < n; i++ {
		rec := raw[24*i:]
		start := int64(binary.LittleEndian.Uint64(rec[0:]))
		end := int64(binary.LittleEndian.Uint64(rec[8:]))
		if start != prevEnd || end <= start || end > int64(len(input)) {
			t.Fatalf("record %d: start %d end %d (prev end %d)", i, start, end, prevEnd)
		}
		prevEnd = end
	}
	// The summary rides in trailers, available once the body is drained.
	if got := resp.Trailer.Get("X-Streamtok-Tokens"); got != strconv.Itoa(n) {
		t.Errorf("trailer tokens %q, want %d", got, n)
	}
	if got := resp.Trailer.Get("X-Streamtok-Error"); got != "" {
		t.Errorf("unexpected error trailer %q", got)
	}
}

func TestTokenizeRequestErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(query string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/tokenize"+query, "", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp, err := http.Get(ts.URL + "/tokenize?grammar=json"); err != nil {
		t.Fatal(err)
	} else if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	for query, want := range map[string]int{
		"":                                      http.StatusBadRequest, // no grammar
		"?grammar=nope":                         http.StatusBadRequest, // unknown name
		"?grammar=json&rule=a":                  http.StatusBadRequest, // both selectors
		"?rule=%5B0-9":                          http.StatusBadRequest, // malformed regex
		"?grammar=json&max_bytes=-1":            http.StatusBadRequest,
		"?grammar=json&deadline=yesterday":      http.StatusBadRequest,
		"?grammar=c":                            http.StatusUnprocessableEntity, // unbounded catalog grammar
		"?rule=%5B0-9%5D%2A0&rule=%5B%20%5D%2B": http.StatusUnprocessableEntity, // [0-9]*0 is unbounded
	} {
		if resp := post(query); resp.StatusCode != want {
			t.Errorf("%q: status %d, want %d", query, resp.StatusCode, want)
		}
	}
	// The unbounded rejection body is the lint diagnostic.
	resp := post("?grammar=c")
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "unbounded-tnd") {
		t.Errorf("422 body missing diagnostic:\n%s", body)
	}
	if s.rejected.Load() == 0 {
		t.Error("rejections not counted")
	}
}

func TestTokenizeMaxBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	// A body over the limit is cut at a chunk boundary with an error
	// summary, not silently truncated.
	big := strings.Repeat("a b ", 4<<10)
	resp, err := http.Post(ts.URL+"/tokenize?rule=a&rule=b&rule=%5B%20%5D%2B", "", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, sum := readNDJSON(t, resp.Body)
	if sum.Error == "" || !strings.Contains(sum.Error, "limit") {
		t.Errorf("summary %+v, want a byte-limit error", sum)
	}
	// Per-request override can lower but not raise the server cap.
	resp2, err := http.Post(ts.URL+"/tokenize?grammar=json&max_bytes=1048576", "", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	_, sum2 := readNDJSON(t, resp2.Body)
	if sum2.Error == "" {
		t.Error("max_bytes must not raise the server limit")
	}
}

// TestTokenizeCutKeepAlive pins the full-duplex early-return path:
// streams cut by the byte budget or by dead input return with their
// bodies unread, and the kept-alive connection must carry the next
// request cleanly. (net/http drained such a body after the handler
// returned, restarted its background reader, and panicked with "invalid
// concurrent Body.Read call" on the next keep-alive read; the client saw
// its follow-up request fail on a closed connection.)
func TestTokenizeCutKeepAlive(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 4 << 10})
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var reused atomic.Int32
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Add(1)
			}
		},
	})
	post := func(query, body string) tokenLine {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/tokenize?"+query, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, sum := readNDJSON(t, resp.Body)
		return sum
	}
	over := strings.Repeat("a b ", 16<<10)    // 64 KiB against a 4 KiB budget
	dead := "c" + strings.Repeat("a", 64<<10) // matches no rule from its first byte
	for i := 0; i < 20; i++ {
		if sum := post("rule=a&rule=b&rule=%5B%20%5D%2B&count=1", over); !strings.Contains(sum.Error, "limit") {
			t.Fatalf("round %d: over-budget summary %+v, want a byte-limit error", i, sum)
		}
		if sum := post("rule=a&rule=b&count=1", dead); sum.Done == nil || sum.Complete == nil || *sum.Complete {
			t.Fatalf("round %d: dead-input summary %+v, want done and incomplete", i, sum)
		}
		if sum := post("grammar=json", `{"k": [1, 2]}`); sum.Done == nil || sum.Complete == nil || !*sum.Complete {
			t.Fatalf("round %d: follow-up summary %+v, want complete", i, sum)
		}
	}
	if reused.Load() == 0 {
		t.Error("no request reused the kept-alive connection")
	}
}

func TestTokenizeDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A body that trickles in slower than the deadline: the stream must
	// be cut at a chunk boundary with a deadline error, not hang.
	pr, pw := io.Pipe()
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := pw.Write([]byte("{} ")); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		pw.Close()
	}()
	resp, err := http.Post(ts.URL+"/tokenize?grammar=json&deadline=100ms", "", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, sum := readNDJSON(t, resp.Body)
	if sum.Error == "" || !strings.Contains(sum.Error, "deadline") {
		t.Errorf("summary %+v, want a deadline error", sum)
	}
}

func TestTokenizeLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, RetryAfter: 2 * time.Second})
	// Occupy the single slot with a stream whose body never finishes.
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/tokenize?grammar=json", "", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("{}"))
	waitFor(t, func() bool { return s.InFlight() == 1 })

	resp, err := http.Post(ts.URL+"/tokenize?grammar=json", "", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want 2", ra)
	}
	if s.shed.Load() != 1 {
		t.Errorf("shed = %d, want 1", s.shed.Load())
	}
	pw.Close()
	<-done

	// Slot free again: the same request now succeeds.
	resp2, err := http.Post(ts.URL+"/tokenize?grammar=json", "", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d", resp2.StatusCode)
	}
	io.Copy(io.Discard, resp2.Body)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := New(Config{})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	if s.panics.Load() != 1 {
		t.Errorf("panics = %d, want 1", s.panics.Load())
	}
	// The server keeps serving after the panic.
	resp2, err := http.Post(ts.URL+"/tokenize?grammar=json", "", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-panic status %d", resp2.StatusCode)
	}
	io.Copy(io.Discard, resp2.Body)
}

func TestHealthAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		InFlight int    `json:"inflight"`
		Capacity int    `json:"capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Capacity == 0 {
		t.Errorf("healthz %d %+v", resp.StatusCode, health)
	}

	// Stream something so metrics have content.
	pres, err := http.Post(ts.URL+"/tokenize?grammar=json", "", strings.NewReader(`[1,2,3]`))
	if err != nil {
		t.Fatal(err)
	}
	toks, _ := readNDJSON(t, pres.Body)
	pres.Body.Close()

	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mres.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests != 1 || m.OK != 1 || m.TokensOut != uint64(len(toks)) {
		t.Errorf("metrics %+v do not reconcile with the %d-token stream", m, len(toks))
	}
	// Grammar-level Stats marshal through streamtok.Stats's custom JSON
	// (no unmarshal side), so assert those on the snapshot directly.
	snap := s.MetricsSnapshot()
	if len(snap.Grammars) != 1 || snap.Grammars[0].Name != "json" || snap.Grammars[0].Stats.TokensOut != uint64(len(toks)) {
		t.Errorf("grammar metrics %+v do not reconcile with the %d-token stream", snap.Grammars, len(toks))
	}
	if snap.Grammars[0].Engine.Mode == "" {
		t.Error("engine info missing")
	}

	sres, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer sres.Body.Close()
	page, _ := io.ReadAll(sres.Body)
	for _, want := range []string{"streamtokd serving", "grammar json", "latency:", "registry:"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("statusz missing %q:\n%s", want, page)
		}
	}
}

func TestDrainRefusesNewStreams(t *testing.T) {
	s, ts := newTestServer(t, Config{RetryAfter: 3 * time.Second})
	s.BeginDrain()
	resp, err := http.Post(ts.URL+"/tokenize?grammar=json", "", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q", ra)
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz status %d, want 503 while draining", hres.StatusCode)
	}
	if s.unavail.Load() != 1 {
		t.Errorf("unavailable = %d, want 1", s.unavail.Load())
	}
}

func TestAppendJSONString(t *testing.T) {
	for in, want := range map[string]string{
		"plain":        `"plain"`,
		`q"b\s`:        `"q\"b\\s"`,
		"nl\ncr\rtb\t": `"nl\ncr\rtb\t"`,
		"\x00\x01\x1f": `"\u0000\u0001\u001f"`,
		"del\x7f":      "\"del\x7f\"",
		"héllo":        `"héllo"`,
		"bad\xffutf8":  "\"bad\uFFFDutf8\"",
	} {
		got := string(appendJSONText(nil, []byte(in)))
		if got != want {
			t.Errorf("appendJSONText(%q) = %s, want %s", in, got, want)
		}
		// Every output must be valid JSON decoding back to a string.
		var back string
		if err := json.Unmarshal(appendJSONText(nil, []byte(in)), &back); err != nil {
			t.Errorf("output for %q is not valid JSON: %v", in, err)
		}
	}
}
