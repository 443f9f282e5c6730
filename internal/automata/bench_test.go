package automata_test

import (
	"math/rand"
	"sync"
	"testing"

	"streamtok/internal/automata"
	"streamtok/internal/bpe"
	"streamtok/internal/workload"
)

// trained8k is the token list of the bpe experiment's 8k-merge row: 8000
// merges trained on 4 MiB of workload.Prompts (seed 42), tokens of at
// most 7 bytes, in rank order.
var trained8k = sync.OnceValue(func() [][]byte {
	v, err := bpe.Train(workload.Prompts(42, 4<<20), 8000, bpe.TrainOptions{MaxTokenLen: 7})
	if err != nil {
		panic(err)
	}
	lits := make([][]byte, v.Size())
	for r := range lits {
		lits[r] = v.Token(r)
	}
	return lits
})

// random100k is a synthetic vocabulary: the 256 single bytes and 100k
// random tokens of 1–6 bytes over a 64-byte alphabet (about 163k trie
// states, rows of every size from 1 to 64 entries).
func random100k() [][]byte {
	rng := rand.New(rand.NewSource(4))
	lits := make([][]byte, 0, 256+100000)
	for b := 0; b < 256; b++ {
		lits = append(lits, []byte{byte(b)})
	}
	for range 100000 {
		tok := make([]byte, 1+rng.Intn(6))
		for j := range tok {
			tok[j] = byte(rng.Intn(64))
		}
		lits = append(lits, tok)
	}
	return lits
}

// BenchmarkTrieSparse measures building the sparse vocab-DFA layout
// from a built trie: row extraction, packing and the build-time check.
// words/op is the bitmap words the packer's first-fit search read.
func BenchmarkTrieSparse(b *testing.B) {
	for _, c := range []struct {
		name string
		lits func() [][]byte
	}{{"vocab-8k", trained8k}, {"random-100k", random100k}} {
		b.Run(c.name, func(b *testing.B) {
			t := automata.NewTrie(c.lits())
			var words int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, words = t.SparseCost()
			}
			b.ReportMetric(float64(words), "words/op")
		})
	}
}
