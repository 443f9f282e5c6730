package server

import (
	"encoding/base64"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postTokenize POSTs body to path and decodes the NDJSON response.
func postTokenize(t *testing.T, ts string, path, body string) ([]tokenLine, tokenLine) {
	t.Helper()
	resp, err := http.Post(ts+path, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, b)
	}
	return readNDJSON(t, resp.Body)
}

// TestTokenizeCursorRejections: transport garbage is a 400, structurally
// valid blobs that fail validation (tampering, wrong grammar) are 422 —
// all before any streaming output, and all counted as rejections.
func TestTokenizeCursorRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post("/tokenize?grammar=json&cursor=%25%25%25", "{}"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-base64 cursor: status %d, want 400", resp.StatusCode)
	}
	garbage := base64.RawURLEncoding.EncodeToString([]byte("not a cursor blob"))
	if resp := post("/tokenize?grammar=json&cursor="+garbage, "{}"); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage cursor blob: status %d, want 422", resp.StatusCode)
	}

	// A genuine cursor taken under json must be refused by csv.
	_, sum := postTokenize(t, ts.URL, "/tokenize?grammar=json&hold=1", `{"a": 1`)
	if sum.Cursor == "" {
		t.Fatal("no cursor to cross-check with")
	}
	resp := post("/tokenize?grammar=csv&cursor="+sum.Cursor, "x,y\n")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("wrong-grammar cursor: status %d, want 422", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "cursor") {
		t.Errorf("wrong-grammar rejection body %q should mention the cursor", body)
	}
	if got := s.MetricsSnapshot().Rejected; got < 3 {
		t.Errorf("rejected counter = %d, want at least the 3 cursor refusals", got)
	}

	// A tampered blob (valid base64, flipped payload byte) is refused.
	raw, err := base64.RawURLEncoding.DecodeString(sum.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	flipped := base64.RawURLEncoding.EncodeToString(raw)
	if resp := post("/tokenize?grammar=json&cursor="+flipped, "{}"); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("tampered cursor: status %d, want 422", resp.StatusCode)
	}
}

// TestTokenizeBinaryCursorTrailer: the binary framing carries the
// suspension cursor in the X-Streamtok-Cursor trailer, and the cursor
// round-trips into an NDJSON resume.
func TestTokenizeBinaryCursorTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	input := "12 345 6789"
	cut := 8
	resp, err := http.Post(ts.URL+"/tokenize?rule=%5B0-9%5D%2B&rule=%5B%20%5D%2B&format=bin&hold=1",
		"", strings.NewReader(input[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil { // trailers land after the body
		t.Fatal(err)
	}
	cur := resp.Trailer.Get("X-Streamtok-Cursor")
	if cur == "" {
		t.Fatal("binary hold=1 response has no X-Streamtok-Cursor trailer")
	}
	if e := resp.Trailer.Get("X-Streamtok-Error"); e != "" {
		t.Fatalf("unexpected error trailer %q", e)
	}
	toks, sum := postTokenize(t, ts.URL, "/tokenize?rule=%5B0-9%5D%2B&rule=%5B%20%5D%2B&text=1&cursor="+cur, input[cut:])
	if sum.Complete == nil || !*sum.Complete {
		t.Fatalf("resume from binary cursor: %+v", sum)
	}
	// The suspended prefix "12 345 67" delivered "12", " ", "345", " ";
	// the resume must finish "6789" as one token spanning the cut.
	last := toks[len(toks)-1]
	if last.Text != "6789" || *last.Start != 7 || last.End != 11 {
		t.Errorf("tail token %+v, want 6789 at [7,11)", last)
	}
}

// TestTokenizeHoldEmptyStream: holding a stream that never fed a byte
// still yields a valid cursor that resumes into the full input.
func TestTokenizeHoldEmptyStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, sum := postTokenize(t, ts.URL, "/tokenize?grammar=csv&hold=1", "")
	if sum.Error != "" || sum.Cursor == "" {
		t.Fatalf("empty hold: %+v", sum)
	}
	input := "a,b,c\n1,2,3\n"
	toks, sum2 := postTokenize(t, ts.URL, "/tokenize?grammar=csv&cursor="+sum.Cursor, input)
	if sum2.Complete == nil || !*sum2.Complete || len(toks) == 0 {
		t.Fatalf("resume from empty-stream cursor: %+v (%d tokens)", sum2, len(toks))
	}
}
