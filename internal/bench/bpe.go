package bench

import (
	"fmt"

	"streamtok/internal/analysis/cert"
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

// The cache probe is likewise fixed: cache_hit_pct, backtrack_pct and
// fallback_pct are measured by one cold-stream pass over this input, so
// the columns are fully deterministic (piece mix, cache behavior and
// search outcomes depend only on the bytes) and CI can gate them across
// machines and -scale settings.
const (
	bpeProbeSeed  = 77
	bpeProbeBytes = 1 << 20
)

// BPE measures the LLM-tokenization frontend across vocabulary scales:
// for BPE vocabularies of 1k–32k merges trained on a fixed
// workload.Prompts corpus, the maximal-munch vocab DFA's size,
// byte-class count C, and serving-table bytes (the row-displacement
// sparse layout once adopted — byte-complete vocabularies defeat
// byte-class compression) against the dense 256-ary baseline; the
// certified resident footprint of the full pipeline (vocab DFA +
// pretokenizer engine); which engine the pretokenizer got under the
// shared fused budget; train and compile time; streaming encode
// throughput; and, on a fixed cold-stream probe, the piece-cache hit
// rate, the fraction of pieces whose greedy scan the backtracking
// search had to repair, and the fraction that ran the merge-loop
// safety net. The 8k row is the operating point the
// fused-budget admission test pins: vocab DFA and fused pretokenizer
// together under the default 16 MB budget; with the sparse tables even
// the 32k vocabulary fits it.
func BPE(cfg Config) Table {
	t := Table{
		Title: "BPE: vocab-DFA compile and streaming encode, 1k–32k merges",
		Header: []string{"merges", "tokens", "dfa_states", "classes",
			"dense_dfa_bytes", "dfa_bytes", "ratio", "resident_bytes", "mode",
			"train_s", "compile_s", "mbps", "cache_hit_pct", "backtrack_pct", "fallback_pct"},
	}
	corpus := workload.Prompts(bpeTrainSeed, bpeTrainBytes)
	in := workload.Prompts(cfg.Seed, cfg.size(1<<20))

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
		compile := timeIt(1, func() {
			var err error
			tok, err = bpe.Compile(v, bpe.Options{})
			if err != nil {
				panic(fmt.Sprintf("bpe: compile %d merges: %v", merges, err))
			}
		})
		vm := tok.VocabMachine()
		c, err := cert.NewBPE(v.Hash(), vm, tok.PretokMachine(), tok.PretokAnalysis(), tok.PretokEngine())
		if err != nil {
			panic(fmt.Sprintf("bpe: certify %d merges: %v", merges, err))
		}
		if err := c.VerifyBPE(v.Hash(), vm, tok.PretokMachine(), tok.PretokAnalysis().MaxTND, tok.PretokEngine()); err != nil {
			panic(fmt.Sprintf("bpe: fresh certificate does not verify (%d merges): %v", merges, err))
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

		elapsed := timeIt(cfg.Trials, func() {
			s := tok.AcquireStream()
			s.Feed(in, emit)
			s.Close(emit)
			tok.ReleaseStream(s)
		})
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
			mbps(len(in), elapsed),
			pct(probed.BPECacheHits, probed.BPECacheHits+probed.BPECacheMisses),
			pct(probed.BPEBacktracks, probed.BPEPieces),
			pct(probed.BPEFallbacks, probed.BPEPieces),
		})
	}
	t.Note = fmt.Sprintf("vocabularies trained on a fixed %d B workload.Prompts corpus (seed %d, max token %d B; the 32k row saturates the token-length cap below its merge budget); dense_dfa_bytes is the 256-ary vocab-DFA layout, dfa_bytes is the serving table (row-displacement sparse once adopted), ratio = dfa_bytes/dense; resident_bytes is the certified vocab-DFA + pretokenizer footprint; cache_hit_pct, backtrack_pct and fallback_pct come from one cold-stream pass over a fixed %d B workload.Prompts probe (seed %d): piece-cache hits per piece, pieces whose greedy scan the local-validity check rejected and the backtracking search then certified, and pieces that ran the merge-loop safety net, each per pretokenizer piece; encode input %d B per row",
		bpeTrainBytes, bpeTrainSeed, bpeMaxTokenLen, bpeProbeBytes, bpeProbeSeed, len(in))
	return t
}

// pct renders n/of as a percentage with one decimal ("0.0" when of is 0).
func pct(n, of uint64) string {
	if of == 0 {
		return "0.0"
	}
	return fmt.Sprintf("%.1f", 100*float64(n)/float64(of))
}
