package streamtok

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"streamtok/internal/core"
	"streamtok/internal/parallel"
)

// ParallelStats reports how well speculative parallel tokenization
// synchronized.
type ParallelStats struct {
	// Segments is how many segments were processed in parallel (1 when
	// the input was small enough to run sequentially).
	Segments int
	// Synchronized counts segments whose speculative tokenization was
	// adopted at a token boundary.
	Synchronized int
	// ReScanned is the number of bytes the stitching pass re-tokenized.
	ReScanned int
}

// String renders the stats on one line.
func (p ParallelStats) String() string {
	return fmt.Sprintf("%d segments, %d synchronized, %d bytes re-scanned",
		p.Segments, p.Synchronized, p.ReScanned)
}

// MarshalJSON renders the stats with stable snake_case keys, matching
// the parallel_* fields of Stats.
func (p ParallelStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Segments     int `json:"segments"`
		Synchronized int `json:"synchronized"`
		ReScanned    int `json:"rescanned"`
	}{p.Segments, p.Synchronized, p.ReScanned})
}

// speculative returns the core engine the segment-parallel stitcher
// runs on, or nil when the tokenizer's engine has no stitcher (a
// vocabulary's BPE encoder), which then tokenizes sequentially through
// the reader driver: one segment, the same token stream.
func (t *Tokenizer) speculative() *core.Tokenizer {
	ct, _ := t.eng.(*core.Tokenizer)
	return ct
}

// TokenizeParallel tokenizes an in-memory input using multiple CPU cores
// (the paper's §8 future-work direction): segments are tokenized
// speculatively in parallel and stitched at token boundaries. Output is
// identical to the sequential engine. workers ≤ 0 uses GOMAXPROCS.
//
// Speculation synchronizes quickly on self-delimiting formats (logs, TSV,
// JSON); on formats with parity-modal constructs (CSV quoted fields) some
// segments degrade to sequential re-scanning — still correct, just less
// parallel.
func (t *Tokenizer) TokenizeParallel(input []byte, workers int, emit EmitFunc) (rest int, stats ParallelStats) {
	ct := t.speculative()
	if ct == nil {
		rest, _ = t.Tokenize(bytes.NewReader(input), 0, emit)
		return rest, ParallelStats{Segments: 1}
	}
	r, s := parallel.Tokenize(ct, input, parallel.Options{Workers: workers}, emit)
	return r, ParallelStats{Segments: s.Segments, Synchronized: s.Synchronized, ReScanned: s.ReScanned}
}

// TokenizeParallelReader tokenizes a stream with reading and
// tokenization pipelined: a reader goroutine fills double-buffered
// blocks ahead of the tokenizer, and each block is tokenized with the
// speculative segment-parallel engine, so I/O latency overlaps
// tokenization and segments of one block are processed on multiple
// cores. The token stream, offsets, and rest are exactly what the
// sequential Tokenize would produce. workers ≤ 0 uses GOMAXPROCS.
//
// err is the reader's error, if any (io.EOF is not an error); tokens
// emitted before a read error are valid and rest reports how far
// tokenization got.
func (t *Tokenizer) TokenizeParallelReader(r io.Reader, workers int, emit EmitFunc) (rest int, stats ParallelStats, err error) {
	ct := t.speculative()
	if ct == nil {
		rest, err = t.Tokenize(r, 0, emit)
		return rest, ParallelStats{Segments: 1}, err
	}
	rr, s, err := parallel.TokenizeReader(ct, r, parallel.Options{Workers: workers}, emit)
	return rr, ParallelStats{Segments: s.Segments, Synchronized: s.Synchronized, ReScanned: s.ReScanned}, err
}
