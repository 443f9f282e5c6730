package server

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"streamtok/internal/workload"
)

// discardResponse is a ResponseWriter and Flusher that keeps nothing, so
// an allocation count covers the handler alone.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Flush()                      {}

// rewindBody replays data on every request that uses it.
type rewindBody struct {
	data []byte
	off  int
}

func (b *rewindBody) Read(p []byte) (int, error) {
	if b.off == len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *rewindBody) Close() error { return nil }

// TestTokenizeAllocsPerRequest bounds the heap allocations of one warm
// /tokenize request: a 64 KB json body, served from a cached catalog
// grammar in each framing. The bounds are the measured counts (Go 1.24,
// linux/amd64); a change that adds per-request or per-token allocations
// fails here.
func TestTokenizeAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	body := workload.JSON(7, 64<<10)
	for _, c := range []struct {
		name  string
		query string
		bound float64
	}{
		{"ndjson", "grammar=json", 19},
		{"ndjson-text", "grammar=json&text=1", 20},
		{"bin", "grammar=json&format=bin", 27}, // + the four trailers
	} {
		t.Run(c.name, func(t *testing.T) {
			rb := &rewindBody{data: body}
			req := httptest.NewRequest(http.MethodPost, "/tokenize?"+c.query, nil)
			w := &discardResponse{h: http.Header{}}
			serve := func() {
				rb.off = 0
				req.Body = rb
				h.ServeHTTP(w, req)
			}
			serve() // compile and cache the grammar, warm the pools
			allocs := testing.AllocsPerRun(20, serve)
			t.Logf("%s: %.0f allocs/request", c.name, allocs)
			if allocs > c.bound {
				t.Errorf("%s: %.0f allocs/request, bound %.0f", c.name, allocs, c.bound)
			}
		})
	}
}

// crcResponse is a discardResponse that checksums the body it drops.
type crcResponse struct {
	discardResponse
	sum uint32
}

func (c *crcResponse) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p)
	return len(p), nil
}

// TestTokenizeTextHugeToken bounds what ?text=1 adds to a request whose
// one token is 8 MiB: the escaped text goes to the response in pieces,
// so it must not be copied or assembled in memory. The response must
// still be the exact line and summary.
func TestTokenizeTextHugeToken(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	const n = 8 << 20
	body := bytes.Repeat([]byte("a"), n)
	want := fmt.Sprintf(`{"start":0,"end":%d,"rule":0,"name":"rule-0","text":"%s"}`+"\n"+
		`{"done":true,"tokens":1,"token_bytes":%d,"bytes_in":%d,"rest":%d,"complete":true}`+"\n", n, body, n, n, n)
	serve := func(query string) (allocated uint64, sum uint32) {
		req := httptest.NewRequest(http.MethodPost, "/tokenize?"+query, bytes.NewReader(body))
		w := &crcResponse{discardResponse: discardResponse{h: http.Header{}}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, w.sum
	}
	const rule = "rule=%5Ba-z%5D%2B" // [a-z]+
	serve(rule)                      // compile the grammar, grow the pooled carry
	plain, _ := serve(rule)
	text, sum := serve(rule + "&text=1")
	t.Logf("8 MiB token: %d B allocated, %d B with text=1", plain, text)
	if text > plain && text-plain > 1<<20 {
		t.Errorf("text=1 allocates %d B more than without it, want under 1 MiB", text-plain)
	}
	if sum != crc32.ChecksumIEEE([]byte(want)) {
		t.Error("text=1 response differs from the expected token line and summary")
	}
}

// BenchmarkTokenizeHandler serves a 1 MiB json body through the handler
// into a discarding writer, per framing: the server's own cost per
// request on top of the engine.
func BenchmarkTokenizeHandler(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	body := workload.JSON(7, 1<<20)
	for _, c := range []struct{ name, query string }{
		{"ndjson", "grammar=json"},
		{"ndjson-text", "grammar=json&text=1"},
		{"bin", "grammar=json&format=bin"},
	} {
		b.Run(c.name, func(b *testing.B) {
			rb := &rewindBody{data: body}
			req := httptest.NewRequest(http.MethodPost, "/tokenize?"+c.query, nil)
			w := &discardResponse{h: http.Header{}}
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rb.off = 0
				req.Body = rb
				h.ServeHTTP(w, req)
			}
		})
	}
}
