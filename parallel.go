package streamtok

import (
	"bytes"
	"encoding/json"
	"fmt"

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

// TokenizeParallel tokenizes an in-memory input using multiple CPU cores
// (the paper's §8 future-work direction): segments are tokenized
// speculatively in parallel and stitched at token boundaries. Output is
// identical to the sequential engine. workers ≤ 0 uses GOMAXPROCS.
//
// Speculation synchronizes quickly on self-delimiting formats (logs, TSV,
// JSON); on formats with parity-modal constructs (CSV quoted fields) some
// segments degrade to sequential re-scanning — still correct, just less
// parallel.
//
// A vocabulary tokenizer has no stitcher for its BPE encoder, so it runs
// TokenizeParallel sequentially, as one segment: the same token stream
// as Tokenize, on one core, with stats reporting one segment.
func (t *Tokenizer) TokenizeParallel(input []byte, workers int, emit EmitFunc) (rest int, stats ParallelStats) {
	ct, ok := t.eng.(*core.Tokenizer)
	if !ok {
		rest, _ = t.Tokenize(bytes.NewReader(input), 0, emit)
		return rest, ParallelStats{Segments: 1}
	}
	r, s := parallel.Tokenize(ct, input, parallel.Options{Workers: workers}, emit)
	return r, ParallelStats{Segments: s.Segments, Synchronized: s.Synchronized, ReScanned: s.ReScanned}
}
