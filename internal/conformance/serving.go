package conformance

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"streamtok/internal/parallel"
	"streamtok/internal/server"
	"streamtok/internal/token"
)

// Scheduler feeds every source's first input through every engine path
// at once, each stream's Feed and Close calls run on its shard worker
// via Handle.Do on a two-worker scheduler, so shards interleave and
// steal; every stream must still match the oracle.
func Scheduler(t *testing.T) {
	sched := parallel.NewScheduler(2, 1<<10)
	defer sched.Close()
	var wg sync.WaitGroup
	for _, src := range Sources() {
		engines := src.Engines(t) // builds the oracle too
		in := src.inputs[0]
		want, wantRest := src.Want(in)
		for _, e := range engines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h, ok := sched.Admit()
				if !ok {
					t.Errorf("%s [%s]: scheduler at capacity", src.Name, e.Mode)
					return
				}
				defer h.Finish()
				c := &collector{input: in}
				var s stream
				h.Do(func() { s = e.open() })
				prev := 0
				for _, end := range boundaries(0, len(in), 7) {
					h.Do(func() { c.feed(s, prev, []int{end}) })
					prev = end
				}
				var rest int
				h.Do(func() { rest = s.Close(c.emit); e.release(s) })
				if msg := c.mismatch(want, rest, wantRest); msg != "" {
					t.Errorf("%s [%s] through Handle.Do: %s", src.Name, e.Mode, msg)
				}
			}()
		}
	}
	wg.Wait()
}

// Serving drives one source of each kind through the daemon over
// HTTP: a ?hold=1 suspend resumed by ?cursor=, a byte-budget cut
// resumed the same way, and dead input (grammars only), each checked
// token by token — offsets, rule and text — against the oracle, with
// the summary's bytes_in, rest, offset and complete. A registry over its memory
// budget refuses with 422.
func Serving(t *testing.T) {
	dir := t.TempDir()
	reg := server.NewRegistry(0)
	mach := Lookup("json.mach")
	mach.Engines(t)
	// Pinned as "machine": a pinned name would shadow the catalog's json.
	if err := os.WriteFile(filepath.Join(dir, "machine.mach"), mach.machine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadMachine(filepath.Join(dir, "machine.mach")); err != nil {
		t.Fatal(err)
	}
	v, err := Vocab()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "vocab.tiktoken"), v.WriteTiktoken(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadVocab(filepath.Join(dir, "vocab.tiktoken")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{Registry: reg}).Handler())
	defer ts.Close()

	rules := url.Values{"rule": Lookup("scientific").rules}.Encode()
	for _, row := range []struct {
		src   *Source
		query string
	}{
		{Lookup("json"), "grammar=json"},
		{Lookup("scientific"), rules},
		{mach, "grammar=machine"},
		{Lookup("vocab"), "vocab=vocab"},
	} {
		t.Run(row.src.Kind, func(t *testing.T) {
			src := row.src
			src.Engines(t) // builds the oracle too
			in := src.resumeInput(400)
			_, rest := src.Want(in)
			in = in[:rest] // tokenizes to the end, into the same tokens
			want, _ := src.Want(in)
			q := ts.URL + "/tokenize?text=1&" + row.query
			cut := len(in)/2 + 3
			if sum := checkSuspendResume(t, q+"&hold=1", in[:cut], in, want); sum.Error != "" || sum.BytesIn != int64(cut) || sum.Rest >= cut {
				t.Fatalf("held stream: summary %+v, want no error, bytes_in %d and pending bytes", sum, cut)
			}
			if sum := checkSuspendResume(t, q+"&max_bytes="+strconv.Itoa(cut), in, in, want); !strings.Contains(sum.Error, "limit") {
				t.Fatalf("cut stream reports error %q, want a byte-limit error", sum.Error)
			}
			if src.Kind == "vocab" {
				return
			}
			dead := append(append([]byte(nil), in[:cut]...), 0, 1)
			want, wantRest := src.Want(dead)
			if wantRest == len(dead) {
				t.Fatalf("%s: %q does not die", src.Name, dead)
			}
			toks, sum := post(t, q, dead)
			if sum.Cursor != "" || sum.Complete == nil || *sum.Complete || sum.Rest != wantRest {
				t.Fatalf("dead input: summary %+v, want rest %d, no cursor, incomplete", sum, wantRest)
			}
			checkLines(t, "dead input", toks, dead, want)
		})
	}

	t.Run("over-budget", func(t *testing.T) {
		reg := server.NewRegistry(0)
		reg.SetMemBudget(1)
		ts := httptest.NewServer(server.New(server.Config{Registry: reg}).Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/tokenize?"+rules, "application/octet-stream", strings.NewReader("12 3"))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "mem-budget") {
			t.Fatalf("status %d, body %q; want 422 naming the mem-budget", resp.StatusCode, body)
		}
	})
}

// checkSuspendResume posts body, a prefix of in, to the suspending
// request q (?hold=1, or a byte budget that cuts the stream), then
// resumes from the returned cursor with the bytes of in the first
// request did not feed. The suspended summary's rest must be the end
// of the last delivered token, and the two token streams together the
// oracle's. It returns the suspended summary.
func checkSuspendResume(t *testing.T, q string, body, in []byte, want []token.Token) line {
	t.Helper()
	toks1, sum1 := post(t, q, body)
	if sum1.Cursor == "" || sum1.Complete == nil || *sum1.Complete {
		t.Fatalf("%s: summary %+v, want a cursor and complete=false", q, sum1)
	}
	boundary := 0
	if len(toks1) > 0 {
		boundary = toks1[len(toks1)-1].End
	}
	if sum1.Rest != boundary {
		t.Fatalf("%s: suspended rest %d, last delivered token ends at %d", q, sum1.Rest, boundary)
	}
	fed := int(sum1.BytesIn)
	toks2, sum2 := post(t, q[:strings.LastIndexByte(q, '&')]+"&cursor="+sum1.Cursor, in[fed:])
	if sum2.Error != "" || sum2.Offset != int64(fed) || sum2.Complete == nil || !*sum2.Complete || sum2.Rest != len(in) {
		t.Fatalf("%s: resumed summary %+v, want offset %d, rest %d, complete", q, sum2, fed, len(in))
	}
	checkLines(t, q, append(toks1, toks2...), in, want)
	return sum1
}

// line is one NDJSON line of a /tokenize response: a token, or the
// final summary.
type line struct {
	Start *int   `json:"start"`
	End   int    `json:"end"`
	Rule  int    `json:"rule"`
	Text  string `json:"text"`

	Done     *bool  `json:"done"`
	Error    string `json:"error"`
	BytesIn  int64  `json:"bytes_in"`
	Rest     int    `json:"rest"`
	Offset   int64  `json:"offset"`
	Cursor   string `json:"cursor"`
	Complete *bool  `json:"complete"`
}

// post sends body to the /tokenize URL q and splits the NDJSON response
// into token lines and the summary.
func post(t *testing.T, q string, body []byte) ([]line, line) {
	t.Helper()
	resp, err := http.Post(q, "application/octet-stream", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", q, resp.StatusCode, b)
	}
	var lines []line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || lines[len(lines)-1].Done == nil && lines[len(lines)-1].Error == "" {
		t.Fatalf("POST %s: response has no summary line", q)
	}
	return lines[:len(lines)-1], lines[len(lines)-1]
}

// checkLines compares delivered token lines with the oracle's tokens.
func checkLines(t *testing.T, what string, got []line, in []byte, want []token.Token) {
	t.Helper()
	toks := make([]token.Token, len(got))
	for i, l := range got {
		if l.Start == nil {
			t.Fatalf("%s: line %d is not a token: %+v", what, i, l)
		}
		toks[i] = token.Token{Start: *l.Start, End: l.End, Rule: l.Rule}
		if l.End > len(in) || *l.Start > l.End || l.Text != string(in[*l.Start:l.End]) {
			t.Fatalf("%s: token %d %+v has text %q", what, i, toks[i], l.Text)
		}
	}
	if msg := (&collector{toks: toks}).mismatch(want, 0, 0); msg != "" {
		t.Fatalf("%s: %s", what, msg)
	}
}
