package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"streamtok/internal/workload"
)

// updateWire rewrites the testdata/wire goldens from the current handler:
//
//	go test ./internal/server -run TestWireGolden -update-wire
//
// The goldens pin the exact response bytes; regenerate them only for a
// deliberate wire-format change.
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire goldens")

// wireDoc is a JSON document whose strings carry every byte class the
// NDJSON text escaper treats differently: quotes and backslashes, control
// bytes, DEL, multi-byte UTF-8 and invalid UTF-8. The json grammar's
// STRING rule accepts any byte, so each string is one token.
var wireDoc = "{\"k\": [1, -2.5e3, true, false, null],\n\t\"q\": \"say \\\"hi\\\" \\\\ back\",\r\n" +
	" \"ctl\": \"\x00\x01\x08\t\x0b\x0c\r\x1b\x1f\x7f\", \"utf8\": \"héllo ☃ \U0001F600\"," +
	" \"bad\": \"\xff\xc3(\xe2\x98\xf0\x9f\x98 \xed\xa0\x80\", \"n\": 1234567890123}"

// wireBody repeats wireDoc in an array, so offsets cross several decimal
// widths and tokens straddle every read size the test uses.
func wireBody() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 12; i++ {
		if i > 0 {
			sb.WriteString(",\n")
		}
		sb.WriteString(wireDoc)
	}
	sb.WriteByte(']')
	return sb.String()
}

// wireAdhoc splits text into lowercase words, runs of high bytes (valid
// and invalid UTF-8 together) and single other bytes.
var wireAdhoc = url.Values{"rule": {`[a-z]+`, `[\x80-\xff]+`, `[^a-z\x80-\xff]`}}.Encode()

var wireAdhocText = "plain \"quoted\" back\\slash \x00\x01\x1f\x7f tab\tnl\ncr\r héllo ☃ \U0001F600 " +
	"bad\xff\xfe mixed\xe2\x98\xc3( end\n"

// wireLongLine is one token whose escaped text is larger than the
// response buffer.
func wireLongLine() string {
	return strings.Repeat("ab\"cd\\ é\x01", 2200) + "\n"
}

// wireCase is one request of the golden battery. cursorFrom names an
// earlier case whose returned cursor this request resumes. perRead cases
// return a cursor, which carries the stream's per-chunk counters, so they
// keep one golden per read size.
type wireCase struct {
	name       string
	query      string
	body       string
	bin        bool
	cursorFrom string
	perRead    bool
}

func wireCases() []wireCase {
	doc := wireBody()
	cut := len(doc)/2 + 5
	prompt := string(workload.Prompts(9, 1<<11))
	// Every rule of the k=0 grammar is one byte long, so the stream dies
	// exactly at the '!' at offset deadAt, inside whichever chunk holds it.
	k0 := url.Values{"rule": {`[a-z]`, ` `}}.Encode()
	deadAt := 20
	dead := strings.Repeat("ab c ", 4) + "!" + strings.Repeat("de f ", 4)
	deadBudget := "&max_bytes=" + strconv.Itoa(deadAt)
	return []wireCase{
		{name: "catalog", query: "grammar=json", body: doc},
		{name: "catalog-text", query: "grammar=json&text=1", body: doc},
		{name: "catalog-count", query: "grammar=json&count=1", body: doc},
		{name: "adhoc-text", query: wireAdhoc + "&text=1", body: wireAdhocText},
		{name: "long-text", query: url.Values{"rule": {`[^\n]+`, `\n`}}.Encode() + "&text=1", body: wireLongLine()},
		{name: "vocab", query: "vocab=toy", body: prompt},
		{name: "vocab-text", query: "vocab=toy&text=1", body: prompt},
		{name: "hold", query: "grammar=json&text=1&hold=1", body: doc[:cut], perRead: true},
		{name: "resume", query: "grammar=json&text=1", body: doc[cut:], cursorFrom: "hold"},
		{name: "catalog-bin", query: "grammar=json&format=bin", body: doc, bin: true},
		{name: "vocab-bin", query: "vocab=toy&format=bin", body: prompt, bin: true},
		{name: "hold-bin", query: "grammar=json&format=bin&hold=1", body: doc[:cut], bin: true, perRead: true},
		{name: "resume-bin", query: "grammar=json&format=bin", body: doc[cut:], bin: true, cursorFrom: "hold-bin"},
		// Cut paths. A max_bytes cut reports the budget error and a cursor;
		// dead input reports complete=false and no cursor; a dead byte in
		// the chunk that crosses max_bytes reports the budget error and no
		// cursor. bytes_in moves with the read size, so all are perRead.
		{name: "cut-budget", query: "grammar=json&text=1&max_bytes=1000", body: doc, perRead: true},
		{name: "cut-budget-bin", query: "grammar=json&format=bin&max_bytes=1000", body: doc, bin: true, perRead: true},
		{name: "dead", query: k0 + "&text=1", body: dead, perRead: true},
		{name: "dead-bin", query: k0 + "&format=bin", body: dead, bin: true, perRead: true},
		{name: "dead-budget", query: k0 + "&text=1" + deadBudget, body: dead, perRead: true},
		{name: "dead-budget-bin", query: k0 + "&format=bin" + deadBudget, body: dead, bin: true, perRead: true},
	}
}

// trickle is a request body that returns at most n bytes per Read, so the
// handler sees the body in n-byte chunks.
type trickle struct {
	data []byte
	n    int
}

func (t *trickle) Read(p []byte) (int, error) {
	if len(t.data) == 0 {
		return 0, io.EOF
	}
	k := min(len(p), t.n, len(t.data))
	copy(p, t.data[:k])
	t.data = t.data[k:]
	return k, nil
}

// serveWire runs one request through the handler and returns the response
// body plus, for binary responses, the trailers rendered one per line.
func serveWire(t *testing.T, h http.Handler, query, body string, readSize int) (resp []byte, trailers string, cursor string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/tokenize?"+query, &trickle{data: []byte(body), n: readSize})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	resp, _ = io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, res.StatusCode, resp)
	}
	if len(res.Trailer) > 0 {
		keys := make([]string, 0, len(res.Trailer))
		for k := range res.Trailer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s: %s\n", k, res.Trailer.Get(k))
		}
		return resp, sb.String(), res.Trailer.Get("X-Streamtok-Cursor")
	}
	last := resp[bytes.LastIndexByte(resp[:len(resp)-1], '\n')+1:]
	var sum struct {
		Cursor string `json:"cursor"`
	}
	if err := json.Unmarshal(last, &sum); err != nil {
		t.Fatalf("%s: summary line %q: %v", query, last, err)
	}
	return resp, "", sum.Cursor
}

// TestWireGolden pins the exact /tokenize response bytes — NDJSON token
// and summary lines, binary records and trailers — for catalog, ad-hoc
// and vocabulary sources, ?text=1, ?count=1, a ?hold=1 → ?cursor= pair
// and the cut paths (max_bytes, dead input, both at once). Every case is
// served with body reads of 1, 7 and 4096 bytes and, unless it is
// perRead, must produce the same bytes each time.
func TestWireGolden(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestVocab(t, dir, "toy")
	reg := NewRegistry(0)
	if _, err := reg.LoadVocab(path); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Registry: reg})
	defer s.Close()
	h := s.Handler()

	golden := filepath.Join("testdata", "wire")
	if *updateWire {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, readSize := range []int{1, 7, 4096} {
		cursors := map[string]string{}
		for _, c := range wireCases() {
			query := c.query
			if c.cursorFrom != "" {
				cur := cursors[c.cursorFrom]
				if cur == "" {
					t.Fatalf("%s: case %s returned no cursor", c.name, c.cursorFrom)
				}
				query += "&cursor=" + cur
			}
			body, trailers, cursor := serveWire(t, h, query, c.body, readSize)
			cursors[c.name] = cursor

			stem := c.name
			if c.perRead {
				stem = fmt.Sprintf("%s.r%d", c.name, readSize)
			}
			files := map[string][]byte{stem + ".ndjson": body}
			if c.bin {
				files = map[string][]byte{stem + ".bin": body, stem + ".trailer": []byte(trailers)}
			}
			for file, got := range files {
				p := filepath.Join(golden, file)
				if *updateWire && (readSize == 1 || c.perRead) {
					if err := os.WriteFile(p, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(p)
				if err != nil {
					t.Fatalf("%v (generate with -update-wire)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s with %d-byte reads: %d bytes differ from the %d-byte golden%s",
						file, readSize, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

// firstDiff describes where got first departs from want.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf(" at byte %d: got %q, want %q", i,
		got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// TestOdometer: the offset digits match strconv.AppendUint when set at
// every width change up to math.MaxInt64 and when carried across it, and
// they track contiguous tokens by carrying and re-format on a jump.
func TestOdometer(t *testing.T) {
	var o odometer
	vals := []int{0, 9, 10, 99, 100, math.MaxInt64}
	for p := 1; p <= math.MaxInt64/10; p *= 10 {
		vals = append(vals, p-1, p, p+1, 10*p-1)
	}
	for _, v := range vals {
		o.set(v)
		if got, want := o.digits(), strconv.AppendUint(nil, uint64(v), 10); !bytes.Equal(got, want) {
			t.Errorf("set(%d) spells %s, want %s", v, got, want)
		}
		if v > 0 {
			o.set(v - 1)
			o.add(1)
			if got, want := o.digits(), strconv.AppendUint(nil, uint64(v), 10); !bytes.Equal(got, want) {
				t.Errorf("set(%d) then add(1) spells %s, want %s", v-1, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(6))
	o.set(0)
	for i := 0; i < 100000; i++ {
		switch r := rng.Intn(100); {
		case r == 0: // a jump, as on a resumed stream
			o.set(rng.Intn(math.MaxInt32) * rng.Intn(1<<20))
		case r < 5: // a long token
			o.add(rng.Intn(1 << 24))
		default:
			o.add(rng.Intn(12))
		}
		if got, want := string(o.digits()), strconv.Itoa(o.pos); got != want {
			t.Fatalf("step %d: odometer spells %s at offset %s", i, got, want)
		}
	}
	o.set(math.MaxInt64 - 5)
	o.add(5)
	if got := string(o.digits()); got != strconv.Itoa(math.MaxInt64) {
		t.Errorf("odometer at MaxInt64 spells %s", got)
	}
}

// FuzzJSONText: the escaper's output is valid JSON that decodes to the
// input with each invalid UTF-8 byte replaced by U+FFFD, and escaping in
// buffer-sized pieces (writeJSON) produces the same bytes.
func FuzzJSONText(f *testing.F) {
	for _, s := range []string{"", "plain", `q"b\s`, "\x00\x1f\x7f\n\r\t", "héllo ☃ \U0001F600",
		"\xff\xc3(\xe2\x98\xf0\x9f\x98\xed\xa0\x80", strings.Repeat("é\x01\"", 20)} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		out := appendJSONText(nil, in)
		var back string
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("appendJSONText(%q) = %s: not valid JSON: %v", in, out, err)
		}
		var want strings.Builder
		for i := 0; i < len(in); {
			r, size := utf8.DecodeRune(in[i:])
			if r == utf8.RuneError && size == 1 {
				want.WriteRune(utf8.RuneError)
			} else {
				want.Write(in[i : i+size])
			}
			i += size
		}
		if back != want.String() {
			t.Fatalf("appendJSONText(%q) decodes to %q, want %q", in, back, want.String())
		}

		var pieces bytes.Buffer
		bw := bufio.NewWriterSize(&pieces, 16)
		bw.WriteString(`x"`)
		writeJSON(bw, in)
		bw.WriteByte('"')
		bw.Flush()
		if got := pieces.Bytes()[1:]; !bytes.Equal(got, out) {
			t.Fatalf("writeJSON(%q) in 16-byte pieces = %s, want %s", in, got, out)
		}
	})
}
