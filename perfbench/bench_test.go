package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"streamtok"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 50}, {25, 60}, {100, 90}, {500, 98}, {999, 98}, {1000, 99}, {100000, 99},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if got > 0 && float64(tc.n)*float64(100-got)/100 < minTail-1e-9 {
			t.Errorf("tailPercentile(%d) = %d leaves fewer than %d samples beyond it", tc.n, got, minTail)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..200, reversed
	}
	d := summarize(xs)
	if d.N != 200 || d.TailP != 95 {
		t.Fatalf("n=%d tail percentile %d, want 200 and 95", d.N, d.TailP)
	}
	if d.P50 != 100.5 || d.Max != 200 {
		t.Errorf("p50 %v max %v, want 100.5 and 200", d.P50, d.Max)
	}
	// Inclusive linear interpolation: position 0.95*199 = 189.05.
	if want := 190.05; d.Tail < want-1e-9 || d.Tail > want+1e-9 {
		t.Errorf("p95 = %v, want %v", d.Tail, want)
	}
	if small := summarize([]float64{3, 1, 2}); small.TailP != 50 || small.Tail != 2 {
		t.Errorf("3 samples: tail p%d = %v, want the median", small.TailP, small.Tail)
	}
}

// TestSummarizeRun: a stall inside one window moves the whole-run tail,
// the per-window diagnostics show where it was, and short samples are
// not split.
func TestSummarizeRun(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1000 // a stall in the second window
	}
	d := summarizeRun(xs)
	if d.N != 5000 || d.TailP != 99 || d.Tail != 1000 || d.Max != 1000 {
		t.Fatalf("summarizeRun = %+v, want 5000 samples and the stall (1000) as p99 and max", d)
	}
	if len(d.PerWindow) != 5 {
		t.Fatalf("%d windows, want 5", len(d.PerWindow))
	}
	// Each clean window holds 0..99 ten times: p99 sits at 989.01 of 999.
	for i, w := range d.PerWindow {
		want := 98.01
		if i == 1 {
			want = 1000
		}
		if w[1] < want-1e-9 || w[1] > want+1e-9 {
			t.Errorf("window %d p99 = %v, want %v", i, w[1], want)
		}
	}
	if w := summarizeRun(xs[:1999]).PerWindow; w != nil {
		t.Errorf("1999 samples split into %d windows, want none", len(w))
	}
}

// testItem compiles adhoc grammar 0 and renders data's expected output.
func testItem(t *testing.T, data string) (*item, *inputs) {
	t.Helper()
	in := &inputs{names: map[string][][]byte{}, gram: map[string]*streamtok.Grammar{}}
	it := in.add("adhoc", "adhoc0", []byte(data))
	g, err := in.grammar(it.Source)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.Compile(g, streamtok.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	toks, rest := tok.TokenizeBytes(it.data)
	d := newDigest()
	recs := make([]tokenRec, len(toks))
	for i, tk := range toks {
		d.add(tk.Start, tk.End, tk.Rule)
		recs[i] = tokenRec{tk.Start, tk.End, tk.Rule}
	}
	it.Want = expect{Digest: d.h, Tokens: d.n, Rest: rest}
	it.Wire = renderWire(recs, it.data, in.names[it.Source], true)
	return it, in
}

// cannedServer answers /tokenize with the correct response for it, with
// the byte at flip (if any) of the body XORed.
func cannedServer(t *testing.T, it *item, in *inputs, flip *atomic.Int64) *httptest.Server {
	g := in.gram[it.Source]
	tok, err := streamtok.Compile(g, streamtok.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	toks, rest := tok.TokenizeBytes(it.data)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		var tokenBytes int
		bin := r.URL.Query().Get("format") == "bin"
		var rec [24]byte
		for _, tk := range toks {
			if bin {
				putRecord(rec[:], tk.Start, tk.End, tk.Rule)
				body = append(body, rec[:]...)
			} else {
				body = appendTokenLine(body, tk.Start, tk.End, tk.Rule, it.data, in.names[it.Source], true)
				body = append(body, '\n')
			}
			tokenBytes += tk.Len()
		}
		if !bin {
			body = fmt.Appendf(body, `{"done":true,"tokens":%d,"token_bytes":%d,"bytes_in":%d,"rest":%d,"complete":true}`+"\n",
				len(toks), tokenBytes, len(it.data), rest)
		}
		if i := flip.Load(); i >= 0 {
			body[i] ^= 0x01
		}
		if bin {
			w.Header().Set("Trailer", "X-Streamtok-Tokens, X-Streamtok-Rest, X-Streamtok-Error, X-Streamtok-Cursor")
		}
		w.Write(body)
		if bin {
			w.Header().Set("X-Streamtok-Tokens", strconv.Itoa(len(toks)))
			w.Header().Set("X-Streamtok-Rest", strconv.Itoa(rest))
			w.Header().Set("X-Streamtok-Error", "")
			w.Header().Set("X-Streamtok-Cursor", "")
		}
	}))
}

// TestFlippedByteFails flips every byte of a correct response in turn
// and requires each flip to fail the op.
func TestFlippedByteFails(t *testing.T) {
	it, in := testItem(t, "alpha 12 beta, gamma 7!\n")
	var flip atomic.Int64
	flip.Store(-1)
	srv := cannedServer(t, it, in, &flip)
	defer srv.Close()
	hc := newClient()
	defer hc.CloseIdleConnections()
	buf := make([]byte, 4096)
	for _, mode := range []string{"ndjson", "bin"} {
		o := newOp(it, mode, nil)
		flip.Store(-1)
		if r := runOp(hc, srv.URL, &o, nil, buf); r.fail != "" {
			t.Fatalf("%s: correct response failed: %s", mode, r.fail)
		}
		size := 24 * it.Want.Tokens
		if mode == "ndjson" {
			resp, err := hc.Post(srv.URL+"/tokenize?"+o.calls[0].query, "", bytes.NewReader(it.data))
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			b.ReadFrom(resp.Body)
			resp.Body.Close()
			size = b.Len()
		}
		for i := 0; i < size; i++ {
			flip.Store(int64(i))
			if r := runOp(hc, srv.URL, &o, nil, buf); r.fail == "" {
				t.Errorf("%s: flipping response byte %d was not caught", mode, i)
			}
		}
	}
}

// TestNDJSONChunking checks that the held-back summary line and the
// running CRC do not depend on how the response arrives.
func TestNDJSONChunking(t *testing.T) {
	it, in := testItem(t, "one 1 two 22 three 333.\n")
	var resp []byte
	for _, tk := range mustTokens(t, in, it) {
		resp = appendTokenLine(resp, tk.start, tk.end, tk.rule, it.data, in.names[it.Source], true)
		resp = append(resp, '\n')
	}
	resp = append(resp, `{"done":true,"tokens":0}`+"\n"...)
	buf := make([]byte, 256)
	var whole, bytewise stream
	var r1, r2 reply
	if err := readNDJSON(bytes.NewReader(resp), &whole, &r1, buf); err != nil {
		t.Fatal(err)
	}
	if err := readNDJSON(iotest.OneByteReader(bytes.NewReader(resp)), &bytewise, &r2, buf); err != nil {
		t.Fatal(err)
	}
	if whole != bytewise || whole.crc != it.Wire.NDJSON || whole.records != it.Want.Tokens {
		t.Errorf("whole read %+v, byte reads %+v, want crc %08x over %d records", whole, bytewise, it.Wire.NDJSON, it.Want.Tokens)
	}
}

func mustTokens(t *testing.T, in *inputs, it *item) []tokenRec {
	tok, err := streamtok.Compile(in.gram[it.Source], streamtok.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	toks, _ := tok.TokenizeBytes(it.data)
	out := make([]tokenRec, len(toks))
	for i, tk := range toks {
		out[i] = tokenRec{tk.Start, tk.End, tk.Rule}
	}
	return out
}

// TestSeedDeterminism: one seed gives byte-identical inputs and
// expectations, another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	dir := t.TempDir()
	load := func(sub string, seed int64) *inputs {
		in, err := generate(filepath.Join(dir, sub), "serve-grammars", seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.prepare(filepath.Join(dir, sub), seed, false); err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := load("a", 7), load("b", 7), load("c", 8)
	same := func(x, y *inputs) bool {
		if len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			dx, err := os.ReadFile(x.Items[i].Path)
			if err != nil {
				t.Fatal(err)
			}
			dy, err := os.ReadFile(y.Items[i].Path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dx, dy) || x.Items[i].Want != y.Items[i].Want || x.Items[i].Wire != y.Items[i].Wire {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("seed 7 twice gave different inputs or expectations")
	}
	if same(a, c) {
		t.Error("seeds 7 and 8 gave identical inputs")
	}
	ops := func(in *inputs, seed int64) string {
		var sb bytes.Buffer
		for _, o := range opSequence(in, seed, 300) {
			fmt.Fprintf(&sb, "%d/%s/%d ", o.item.ID, o.mode, o.split)
		}
		return sb.String()
	}
	if ops(a, 7) != ops(b, 7) {
		t.Error("seed 7 twice gave different op sequences")
	}
	if ops(a, 7) == ops(c, 8) {
		t.Error("seeds 7 and 8 gave the same op sequence")
	}
}

// TestWindowScaling: each op is scaled by the window it was sent in, and
// the phase's busy time by each window's own scale.
func TestWindowScaling(t *testing.T) {
	if k := scaleFor(refSlice, refSlice); k != 1 {
		t.Errorf("slices at reference speed scale by %v, want 1", k)
	}
	if k := scaleFor(2*refSlice, 2*refSlice); k != 0.5 {
		t.Errorf("slices twice as slow scale by %v, want 0.5", k)
	}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	lr := &loadResult{
		windows: []window{{at(0), at(1000), 1}, {at(1010), at(2010), 0.5}},
		ops: []opResult{
			{sent: at(1500), first: at(1502), end: at(1510), bytes: 300},
			{sent: at(10), first: at(11), end: at(30), bytes: 100},
			{sent: at(1000 - 20), end: at(1000), bytes: 50, fail: "wrong"},
		},
	}
	okBytes, scaled, raw := lr.samples()
	if okBytes != 400 || raw.secs != 2 || scaled.secs != 1.5 {
		t.Errorf("ok bytes %d, busy %v s raw and %v s scaled; want 400, 2 and 1.5", okBytes, raw.secs, scaled.secs)
	}
	if want := []float64{20, 20, 5}; fmt.Sprint(scaled.lat) != fmt.Sprint(want) {
		t.Errorf("scaled latencies %v, want %v (in send order)", scaled.lat, want)
	}
	if want := []float64{1, 1}; fmt.Sprint(scaled.ttft) != fmt.Sprint(want) {
		t.Errorf("scaled ttft %v, want %v", scaled.ttft, want)
	}
}

// TestCalibratorFixed: the calibration work never depends on the run.
func TestCalibratorFixed(t *testing.T) {
	a, b := newCalibrator(2), newCalibrator(2)
	if !bytes.Equal(a.input, b.input) || fmt.Sprint(a.table) != fmt.Sprint(b.table) ||
		fmt.Sprint(a.slots) != fmt.Sprint(b.slots) {
		t.Error("two calibrators hold different tables or inputs")
	}
	if d := a.slice(2); d <= 0 {
		t.Errorf("slice took %v", d)
	}
}
