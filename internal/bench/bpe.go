package bench

import (
	"fmt"
	"runtime"

	"streamtok/internal/analysis/cert"
	"streamtok/internal/automata"
	"streamtok/internal/bpe"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// bpeMergeCounts are the vocabulary sizes the experiment trains and
// compiles. Fixed (never scaled by Config.Scale), like the biggrammar
// rule counts, so the structural columns of a reduced-scale CI run match
// the committed baseline — Scale stretches the encoded input, not the
// vocabularies.
var bpeMergeCounts = []int{1000, 8000, 32000}

// The training corpus is likewise fixed: vocabulary contents (and with
// them DFA states, classes, and table bytes) must be byte-identical
// across machines and scales.
const (
	bpeTrainSeed   = 42
	bpeTrainBytes  = 4 << 20
	bpeMaxTokenLen = 7
)

// The cache probes are likewise fixed: cache_hit_pct, backtrack_pct and
// fallback_pct are measured by one cold-stream pass over the 1 MiB
// probe, and warm_hit_pct by the second pass of one stream over the
// 5 MiB one, so the columns are fully deterministic (piece mix, cache
// behavior and search outcomes depend only on the bytes) and CI can
// gate them across machines and -scale settings. The warm probe holds
// 55,042 distinct cacheable pieces, 84% of the cache's slots: enough
// to overflow about a quarter of its 8-way sets, so its column shows
// what the replacement policy keeps.
const (
	bpeProbeSeed      = 77
	bpeProbeBytes     = 1 << 20
	bpeWarmProbeBytes = 5 << 20
)

// BPE measures the LLM-tokenization frontend across vocabulary scales:
// for BPE vocabularies of 1k–32k merges trained on a fixed
// workload.Prompts corpus, the maximal-munch vocab DFA's size,
// byte-class count C, and serving-table bytes (the row-displacement
// sparse layout — byte-complete vocabularies defeat byte-class
// compression) against the dense 256-ary baseline; the
// certified resident footprint of the full pipeline (vocab DFA +
// pretokenizer engine); which engine the pretokenizer got under the
// shared fused budget; train and compile time, the bytes compile
// allocates (which layer paid for set-up) and the bitmap words the
// vocab-DFA packer reads (the packing work, host-independent);
// streaming encode throughput, with and without the piece cache; and,
// on a fixed cold-stream probe, the piece-cache hit rate, the fraction of pieces
// whose greedy scan the backtracking search had to repair, and the
// fraction that ran the merge-loop safety net; and, on a fixed probe
// that overflows many of the cache's sets, the warm stream's hit rate. The 8k row
// is the operating point the fused-budget admission test pins: vocab
// DFA and fused pretokenizer together under the default 16 MB budget;
// with the sparse tables even the 32k vocabulary fits it.
func BPE(cfg Config) Table {
	t := Table{
		Title: "BPE: vocab-DFA compile and streaming encode, 1k–32k merges",
		Header: []string{"merges", "tokens", "dfa_states", "classes",
			"dense_dfa_bytes", "dfa_bytes", "ratio", "resident_bytes", "mode",
			"train_s", "compile_s", "compile_alloc_mb", "pack_words", "mbps", "nocache_mbps", "cache_hit_pct", "warm_hit_pct", "backtrack_pct", "fallback_pct"},
	}
	corpus := workload.Prompts(bpeTrainSeed, bpeTrainBytes)
	in := workload.Prompts(cfg.Seed, cfg.size(1<<20))
	warmProbe := workload.Prompts(bpeProbeSeed, bpeWarmProbeBytes)

	for _, merges := range bpeMergeCounts {
		var v *bpe.Vocab
		train := timeIt(1, func() {
			var err error
			v, err = bpe.Train(corpus, merges, bpe.TrainOptions{MaxTokenLen: bpeMaxTokenLen})
			if err != nil {
				panic(fmt.Sprintf("bpe: train %d merges: %v", merges, err))
			}
		})
		var tok *bpe.Tokenizer
		var memBefore, memAfter runtime.MemStats
		compile := timeIt(1, func() {
			runtime.ReadMemStats(&memBefore)
			var err error
			tok, err = bpe.Compile(v, bpe.Options{})
			if err != nil {
				panic(fmt.Sprintf("bpe: compile %d merges: %v", merges, err))
			}
			runtime.ReadMemStats(&memAfter)
		})
		vm := tok.VocabMachine()
		lits := make([][]byte, v.Size())
		for r := range lits {
			lits[r] = v.Token(r)
		}
		_, packWords := automata.NewTrie(lits).SparseCost()
		c, err := cert.NewBPE(v.Hash(), vm, tok.PretokMachine(), tok.PretokAnalysis(), tok.PretokEngine())
		if err != nil {
			panic(fmt.Sprintf("bpe: certify %d merges: %v", merges, err))
		}

		emit := func(token.Token, []byte) {}

		// Cache probe: one cold stream (NewStream, not the warm pool) over
		// the fixed probe input; the tokenizer's counters hold exactly this
		// pass, so the hit rate is deterministic.
		probe := workload.Prompts(bpeProbeSeed, bpeProbeBytes)
		ps := tok.NewStream()
		ps.Feed(probe, emit)
		ps.Close(emit)
		probed := tok.AggregateCounters()

		// Warm probe: one stream reads the 5 MiB probe twice, reset in
		// between as the pool resets a stream it hands out again, and
		// keeps its cache; the second pass is measured.
		ws := tok.NewStream()
		ws.Feed(warmProbe, emit)
		ws.Close(emit)
		ws.Reset()
		before := ws.StreamCounters()
		ws.Feed(warmProbe, emit)
		ws.Close(emit)
		warm := ws.StreamCounters()

		encode := func(tok *bpe.Tokenizer) func() {
			return func() {
				s := tok.AcquireStream()
				s.Feed(in, emit)
				s.Close(emit)
				tok.ReleaseStream(s)
			}
		}
		elapsed := timeIt(cfg.Trials, encode(tok))
		// The piece-cache ablation: the same encode with every piece
		// through the backtracking search.
		nocache, err := bpe.Compile(v, bpe.Options{DisablePieceCache: true})
		if err != nil {
			panic(fmt.Sprintf("bpe: compile %d merges without the piece cache: %v", merges, err))
		}
		uncached := timeIt(cfg.Trials, encode(nocache))
		dense := cert.DenseDFABytes(vm)

		t.Rows = append(t.Rows, []string{
			itoa(merges),
			itoa(v.Size()),
			itoa(vm.DFA.NumStates()),
			itoa(vm.DFA.NumClasses()),
			itoa(dense),
			itoa(vm.TableBytes()),
			fmt.Sprintf("%.3f", float64(vm.TableBytes())/float64(dense)),
			itoa(c.TableBytes),
			tok.EngineMode(),
			secs(train),
			secs(compile),
			fmt.Sprintf("%.2f", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/(1<<20)),
			itoa(packWords),
			mbps(len(in), elapsed),
			mbps(len(in), uncached),
			pct(probed.BPECacheHits, probed.BPECacheHits+probed.BPECacheMisses),
			pct(warm.BPECacheHits-before.BPECacheHits, warm.BPEPieces-before.BPEPieces),
			pct(probed.BPEBacktracks, probed.BPEPieces),
			pct(probed.BPEFallbacks, probed.BPEPieces),
		})
	}
	t.Note = fmt.Sprintf("vocabularies trained on a fixed %d B workload.Prompts corpus (seed %d, max token %d B; the 32k row saturates the token-length cap below its merge budget); dense_dfa_bytes is the 256-ary vocab-DFA layout, dfa_bytes is the serving table (row-displacement sparse once adopted), ratio = dfa_bytes/dense; compile_alloc_mb is the heap bpe.Compile allocates (runtime.MemStats.TotalAlloc delta; deterministic, so gated); pack_words is the 64-bit bitmap words the sparse packer's first-fit search reads laying out the vocab DFA (automata.Trie.SparseCost; deterministic, so gated); resident_bytes is the certified vocab-DFA + pretokenizer footprint; mbps is the pooled encode, nocache_mbps the same with the piece cache disabled (ablation; both host-dependent, ungated; host %s/%s %s NumCPU=%d); cache_hit_pct, backtrack_pct and fallback_pct come from one cold-stream pass over a fixed %d B workload.Prompts probe (seed %d): piece-cache hits per piece, pieces whose greedy scan the local-validity check rejected and the backtracking search then certified, and pieces that ran the merge-loop safety net, each per pretokenizer piece; warm_hit_pct is the piece-cache hit rate of the second of two passes of one stream over a fixed %d B workload.Prompts probe (seed %d), whose distinct pieces overflow many of the cache's 8-way sets; encode input %d B per row",
		bpeTrainBytes, bpeTrainSeed, bpeMaxTokenLen, runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), bpeProbeBytes, bpeProbeSeed, bpeWarmProbeBytes, bpeProbeSeed, len(in))
	return t
}

// pct renders n/of as a percentage with one decimal ("0.0" when of is 0).
func pct(n, of uint64) string {
	if of == 0 {
		return "0.0"
	}
	return fmt.Sprintf("%.1f", 100*float64(n)/float64(of))
}
