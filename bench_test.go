// Benchmarks regenerating the paper's tables and figures as testing.B
// targets — one per table/figure, plus the ablations called out in
// DESIGN.md. cmd/paperbench prints the same experiments as formatted
// tables; these integrate with `go test -bench`.
package streamtok_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/backtrack"
	"streamtok/internal/core"
	"streamtok/internal/extoracle"
	"streamtok/internal/ghdataset"
	"streamtok/internal/grammars"
	"streamtok/internal/parallel"
	"streamtok/internal/reps"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
	"streamtok/internal/tokenskip"
	"streamtok/internal/workload"
)

const benchMB = 1 << 20

var (
	inputOnce  sync.Once
	benchInput map[string][]byte
)

func formatInput(b *testing.B, format string) []byte {
	b.Helper()
	inputOnce.Do(func() {
		benchInput = map[string][]byte{}
	})
	if in, ok := benchInput[format]; ok {
		return in
	}
	in, err := workload.Generate(format, 2026, benchMB)
	if err != nil {
		b.Fatal(err)
	}
	benchInput[format] = in
	return in
}

func machineFor(b *testing.B, format string) *tokdfa.Machine {
	b.Helper()
	spec, err := grammars.Lookup(format)
	if err != nil {
		b.Fatal(err)
	}
	return spec.Machine()
}

func streamTokFor(b *testing.B, m *tokdfa.Machine) *core.Tokenizer {
	b.Helper()
	res := analysis.Analyze(m)
	if !res.Bounded() {
		b.Fatal("unbounded grammar in benchmark")
	}
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	return tok
}

var sinkTokens int

func noopEmit(token.Token, []byte) { sinkTokens++ }

// BenchmarkTable1Analysis measures the static analysis on each Table 1
// grammar (compile + Fig. 3).
func BenchmarkTable1Analysis(b *testing.B) {
	for _, name := range []string{"json", "csv", "tsv", "xml", "c", "r", "sql"} {
		spec, err := grammars.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := spec.Machine()
				analysis.Analyze(m)
			}
		})
	}
}

// BenchmarkFig7dAnalysis measures the analysis alone across corpus
// grammar sizes (RQ2's time-vs-size relationship).
func BenchmarkFig7dAnalysis(b *testing.B) {
	entries := ghdataset.Corpus(2026)
	for _, idx := range []int{0, 100, 500, 1500, 2500} {
		e := entries[idx]
		g, err := tokdfa.ParseGrammar(e.Rules...)
		if err != nil {
			b.Fatal(err)
		}
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nfa%d", m.NFASize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analysis.Analyze(m)
			}
		})
	}
}

// BenchmarkFig7dAnalysisNoWitness is BenchmarkFig7dAnalysis without the
// per-generation witness bookkeeping (AnalyzeOpts{Witness: false}), the
// configuration corpus sweeps and grammarlint subset probes use.
func BenchmarkFig7dAnalysisNoWitness(b *testing.B) {
	entries := ghdataset.Corpus(2026)
	for _, idx := range []int{0, 100, 500, 1500, 2500} {
		e := entries[idx]
		g, err := tokdfa.ParseGrammar(e.Rules...)
		if err != nil {
			b.Fatal(err)
		}
		m, err := tokdfa.Compile(g, tokdfa.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nfa%d", m.NFASize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analysis.AnalyzeWith(m, analysis.AnalyzeOpts{})
			}
		})
	}
}

// BenchmarkFig8 is the worst-case microbenchmark: r_k = a{0,k}b | a on an
// all-a input. StreamTok and ExtOracle should be flat in k; flex, Reps,
// and the in-memory scan degrade linearly.
func BenchmarkFig8(b *testing.B) {
	input := workload.WorstCase(256 * 1024)
	for _, k := range []int{2, 8, 32, 128} {
		g := tokdfa.MustParseGrammar(fmt.Sprintf(`a{0,%d}b`, k), `a`)
		m := tokdfa.MustCompile(g, tokdfa.Options{Minimize: true})
		st := streamTokFor(b, m)
		flex := backtrack.NewScanner(m)
		oracle := extoracle.New(m)
		b.Run(fmt.Sprintf("streamtok/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				s := st.NewStreamer()
				s.Feed(input, noopEmit)
				s.Close(noopEmit)
			}
		})
		b.Run(fmt.Sprintf("flex/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				if _, _, err := flex.Tokenize(bytes.NewReader(input), 64*1024, noopEmit); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reps/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				reps.Tokenize(m, input, noopEmit)
			}
		})
		b.Run(fmt.Sprintf("extoracle/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				oracle.Tokenize(input, nil, noopEmit)
			}
		})
	}
}

// BenchmarkFig9 measures tokenization across stream lengths (linearity in
// n for every tool; the per-tool ranking is Fig. 10's).
func BenchmarkFig9(b *testing.B) {
	for _, format := range []string{"json", "csv", "xml", "log"} {
		m := machineFor(b, format)
		st := streamTokFor(b, m)
		for _, size := range []int{benchMB / 4, benchMB} {
			in, err := workload.Generate(format, 2026, size)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%dKB", format, size/1024), func(b *testing.B) {
				b.SetBytes(int64(len(in)))
				for i := 0; i < b.N; i++ {
					s := st.NewStreamer()
					s.Feed(in, noopEmit)
					s.Close(noopEmit)
				}
			})
		}
	}
}

// BenchmarkFig10 measures per-tool throughput on every RQ3 data format at
// a fixed size (use -benchmem to see the memory contrast too).
func BenchmarkFig10(b *testing.B) {
	for _, format := range []string{"json", "csv", "tsv", "xml", "yaml", "fasta", "dns", "log"} {
		m := machineFor(b, format)
		input := formatInput(b, format)
		st := streamTokFor(b, m)
		flex := backtrack.NewScanner(m)
		oracle := extoracle.New(m)
		tape := make([]int32, len(input)+1)
		b.Run(format+"/streamtok", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				s := st.NewStreamer()
				s.Feed(input, noopEmit)
				s.Close(noopEmit)
			}
		})
		b.Run(format+"/flex", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				if _, _, err := flex.Tokenize(bytes.NewReader(input), 64*1024, noopEmit); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(format+"/reps", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				reps.Tokenize(m, input, noopEmit)
			}
		})
		b.Run(format+"/regexscan", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				backtrack.Scan(m, input, noopEmit)
			}
		})
		b.Run(format+"/extoracle", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				oracle.Tokenize(input, tape, noopEmit)
			}
		})
	}
}

// BenchmarkFig11a sweeps the input buffer capacity (RQ4): throughput
// should climb to ~64 KB and plateau.
func BenchmarkFig11a(b *testing.B) {
	m := machineFor(b, "json")
	input := formatInput(b, "json")
	st := streamTokFor(b, m)
	for _, bufKB := range []int{1, 16, 64, 1024} {
		buf := bufKB * 1024
		b.Run(fmt.Sprintf("buf=%dKB", bufKB), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				s := st.NewStreamer()
				for off := 0; off < len(input); off += buf {
					end := off + buf
					if end > len(input) {
						end = len(input)
					}
					s.Feed(input[off:end], noopEmit)
				}
				s.Close(noopEmit)
			}
		})
	}
}

// BenchmarkFig11b sweeps the average token length (RQ4): shorter tokens
// mean more per-token work and lower throughput.
func BenchmarkFig11b(b *testing.B) {
	m := machineFor(b, "csv")
	st := streamTokFor(b, m)
	for _, tokenLen := range []int{2, 8, 32, 128} {
		in := workload.CSVWithTokenLen(2026, benchMB, tokenLen)
		b.Run(fmt.Sprintf("len=%d", tokenLen), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				s := st.NewStreamer()
				s.Feed(in, noopEmit)
				s.Close(noopEmit)
			}
		})
	}
}

// BenchmarkTable2 measures the RQ5 applications end to end under both
// engines (log parsing shown for the linux format; conversions on JSON).
func BenchmarkTable2(b *testing.B) {
	logIn, err := workload.Log("linux", 2026, benchMB)
	if err != nil {
		b.Fatal(err)
	}
	logM := machineFor(b, "log")
	logST := streamTokFor(b, logM)
	logFlex := backtrack.NewScanner(logM)
	b.Run("logtotsv/streamtok", func(b *testing.B) {
		b.SetBytes(int64(len(logIn)))
		for i := 0; i < b.N; i++ {
			s := logST.NewStreamer()
			s.Feed(logIn, noopEmit)
			s.Close(noopEmit)
		}
	})
	b.Run("logtotsv/flex", func(b *testing.B) {
		b.SetBytes(int64(len(logIn)))
		for i := 0; i < b.N; i++ {
			if _, _, err := logFlex.Tokenize(bytes.NewReader(logIn), 64*1024, noopEmit); err != nil {
				b.Fatal(err)
			}
		}
	})

	jsonIn := formatInput(b, "json")
	jsonM := machineFor(b, "json")
	jsonST := streamTokFor(b, jsonM)
	jsonFlex := backtrack.NewScanner(jsonM)
	b.Run("jsonminify/streamtok", func(b *testing.B) {
		b.SetBytes(int64(len(jsonIn)))
		for i := 0; i < b.N; i++ {
			s := jsonST.NewStreamer()
			s.Feed(jsonIn, noopEmit)
			s.Close(noopEmit)
		}
	})
	b.Run("jsonminify/flex", func(b *testing.B) {
		b.SetBytes(int64(len(jsonIn)))
		for i := 0; i < b.N; i++ {
			if _, _, err := jsonFlex.Tokenize(bytes.NewReader(jsonIn), 64*1024, noopEmit); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRQ6Memory contrasts allocation behaviour (run with -benchmem):
// StreamTok allocates per-stream state only; ExtOracle allocates the Θ(n)
// lookahead tape every run.
func BenchmarkRQ6Memory(b *testing.B) {
	m := machineFor(b, "csv")
	input := formatInput(b, "csv")
	st := streamTokFor(b, m)
	b.Run("streamtok", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := st.NewStreamer()
			s.Feed(input, noopEmit)
			s.Close(noopEmit)
		}
	})
	b.Run("extoracle", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracle := extoracle.New(m)
			oracle.Tokenize(input, nil, noopEmit) // allocates the tape
		}
	})
}

// BenchmarkAblationK1Special isolates the Fig. 5 specialization: the same
// max-TND-1 grammar run through the K=1 fast path vs the general Fig. 6
// machinery (built with the overestimate K=2).
func BenchmarkAblationK1Special(b *testing.B) {
	m := machineFor(b, "csv")
	input := formatInput(b, "csv")
	// Split constructors: this ablation isolates Fig. 5 vs Fig. 6
	// interpretation, not the fused engine (see BenchmarkFeed* for that).
	k1, err := core.NewWithKBudget(m, 1, tepath.Limits{}, -1)
	if err != nil {
		b.Fatal(err)
	}
	general, err := core.NewWithKBudget(m, 2, tepath.Limits{}, -1)
	if err != nil {
		b.Fatal(err)
	}
	for name, tok := range map[string]*core.Tokenizer{"fig5-k1": k1, "fig6-general": general} {
		tok := tok
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				s := tok.NewStreamer()
				s.Feed(input, noopEmit)
				s.Close(noopEmit)
			}
		})
	}
}

// BenchmarkAblationTeDFAVsLazy isolates eager vs lazy TeDFA determinization
// on a K=3 grammar.
func BenchmarkAblationTeDFAVsLazy(b *testing.B) {
	m := machineFor(b, "json")
	input := formatInput(b, "json")
	// Split constructor so the comparison isolates the TeDFA strategy.
	eager, err := core.NewWithKBudget(m, 3, tepath.Limits{}, -1)
	if err != nil {
		b.Fatal(err)
	}
	lazy, err := core.NewWithK(m, 3, tepath.Limits{MaxDFAStates: 1})
	if err != nil {
		b.Fatal(err)
	}
	for name, tok := range map[string]*core.Tokenizer{"eager": eager, "lazy": lazy} {
		tok := tok
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				s := tok.NewStreamer()
				s.Feed(input, noopEmit)
				s.Close(noopEmit)
			}
		})
	}
}

// BenchmarkAblationDenseVsClass isolates the dense 256-ary transition
// rows against the byte-class compressed rows (byte -> class -> target)
// that are now the repository's engine substrate. The dense arm drives
// the DenseTrans export view — the layout earlier versions used as the
// working representation — so the benchmark prices the extra L1-resident
// class-map lookup the ~C/256 table shrink costs.
func BenchmarkAblationDenseVsClass(b *testing.B) {
	m := machineFor(b, "json")
	input := formatInput(b, "json")
	d := m.DFA
	dense := d.DenseTrans()
	numClasses := d.NumClasses()
	classOf := d.ClassOf
	classTrans := d.Trans
	b.Logf("json DFA: %d states, %d byte classes", d.NumStates(), numClasses)

	b.Run("dense", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			q := int32(d.Start)
			for _, c := range input {
				q = dense[int(q)*256+int(c)]
			}
			sinkTokens += int(q)
		}
	})
	b.Run("class-compressed", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			q := int32(d.Start)
			for _, c := range input {
				q = classTrans[int(q)*numClasses+int(classOf[c])]
			}
			sinkTokens += int(q)
		}
	})
}

// BenchmarkParallel contrasts sequential StreamTok with the speculative
// parallel engine (§8 future work) on a self-synchronizing format.
func BenchmarkParallel(b *testing.B) {
	m := machineFor(b, "log")
	st := streamTokFor(b, m)
	in, err := workload.Log("linux", 2026, 8*benchMB)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		for i := 0; i < b.N; i++ {
			s := st.NewStreamer()
			s.Feed(in, noopEmit)
			s.Close(noopEmit)
		}
	})
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				parallel.Tokenize(st, in, parallel.Options{Workers: workers}, noopEmit)
			}
		})
	}
}

// BenchmarkOOPSLA25Baselines contrasts the two offline algorithms of
// Li & Mamouras (OOPSLA '25): the paper demonstrated ExtOracle to be the
// more competitive one; TokenSkip's backward pass costs O(M) per byte.
func BenchmarkOOPSLA25Baselines(b *testing.B) {
	m := machineFor(b, "csv")
	input := formatInput(b, "csv")
	oracle := extoracle.New(m)
	skipper := tokenskip.New(m)
	tape := make([]int32, len(input)+1)
	b.Run("extoracle", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			oracle.Tokenize(input, tape, noopEmit)
		}
	})
	b.Run("tokenskip", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			skipper.Tokenize(input, noopEmit)
		}
	})
}

// --- Hot-loop microbenchmarks (ISSUE 2 tentpole) ------------------------
//
// BenchmarkFeed* isolate the per-byte steady-state cost of each engine
// mode, running the same grammar+input through the split interpreter,
// the fused action-table engine, and the fused engine without accel
// states. MB/s comes from b.SetBytes.

func benchEngineVariants(b *testing.B, m *tokdfa.Machine, k int, input []byte) {
	variants := []struct {
		name  string
		build func(*tokdfa.Machine, int, tepath.Limits) (*core.Tokenizer, error)
	}{
		{"split", func(m *tokdfa.Machine, k int, l tepath.Limits) (*core.Tokenizer, error) {
			return core.NewWithKBudget(m, k, l, -1)
		}},
		{"fused-noaccel", core.NewNoAccelWithK},
		{"fused", core.NewWithK},
	}
	for _, v := range variants {
		tok, err := v.build(m, k, tepath.Limits{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := tok.NewStreamer()
				s.Feed(input, noopEmit)
				s.Close(noopEmit)
			}
		})
	}
}

// BenchmarkFeedK0 is the max-TND-0 loop (single-byte tokens: no
// lookahead, emit at every final state).
func BenchmarkFeedK0(b *testing.B) {
	g := tokdfa.MustParseGrammar(`[0-9]`, `[ ]`)
	m, err := tokdfa.Compile(g, tokdfa.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := bytes.Repeat([]byte("3141592 65358 97932 384626 43383 27950 2884 "), benchMB/44)
	benchEngineVariants(b, m, 0, in)
}

// BenchmarkFeedK1 is the Fig. 5 one-byte-lookahead loop on the CSV
// catalog grammar.
func BenchmarkFeedK1(b *testing.B) {
	benchEngineVariants(b, machineFor(b, "csv"), 1, formatInput(b, "csv"))
}

// BenchmarkFeedGeneral is the Fig. 6 loop (eager TeDFA, K=3) on the
// JSON catalog grammar.
func BenchmarkFeedGeneral(b *testing.B) {
	benchEngineVariants(b, machineFor(b, "json"), 3, formatInput(b, "json"))
}

// BenchmarkFeedGeneralLazy is the lazily determinized Fig. 6 loop (the
// fused engine does not apply; this is the fallback everything else is
// measured against).
func BenchmarkFeedGeneralLazy(b *testing.B) {
	m := machineFor(b, "json")
	input := formatInput(b, "json")
	tok, err := core.NewWithK(m, 3, tepath.Limits{MaxDFAStates: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(input)))
	for i := 0; i < b.N; i++ {
		s := tok.NewStreamer()
		s.Feed(input, noopEmit)
		s.Close(noopEmit)
	}
}

// BenchmarkFeedFused is the headline run-heavy sweep: workloads
// dominated by long self-loop runs (JSON long strings, column-aligned
// log whitespace, long CSV fields), where the accel states get to skip
// in bulk.
func BenchmarkFeedFused(b *testing.B) {
	cases := []struct {
		name   string
		format string
		k      int
		input  []byte
	}{
		{"json-longstr", "json", 3, workload.JSONWithTokenLen(2026, benchMB, 512)},
		{"log-aligned", "log", 1, workload.LogAligned(2026, benchMB, 32)},
		{"csv-longfield", "csv", 1, workload.CSVWithTokenLen(2026, benchMB, 256)},
	}
	for _, c := range cases {
		m := machineFor(b, c.format)
		b.Run(c.name, func(b *testing.B) {
			benchEngineVariants(b, m, c.k, c.input)
		})
	}
}
