package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named table/figure regenerator.
type Experiment struct {
	Name string
	Desc string
	Run  func(cfg Config) Table
}

// Experiments returns the full registry, keyed by the paper's table and
// figure ids.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "NFA/DFA sizes and max-TND for format and language grammars", func(Config) Table { return Table1() }},
		{"fig7a", "grammar-size histogram over the synthetic GitHub corpus", Fig7a},
		{"fig7b", "max-TND distribution over the corpus", Fig7b},
		{"fig7c", "DFA size vs NFA size", Fig7c},
		{"fig7d", "static analysis time vs grammar size (RQ2)", Fig7d},
		{"fig8", "worst-case family r_k: time/throughput vs k", Fig8},
		{"fig9", "tokenization time vs stream length per format", Fig9},
		{"fig10", "throughput per tool per format", Fig10},
		{"fig11a", "buffer-capacity sweep (RQ4)", Fig11a},
		{"fig11b", "token-length sweep (RQ4)", Fig11b},
		{"table2", "application speedups (RQ5)", Table2},
		{"rq6", "memory footprint StreamTok vs ExtOracle", RQ6},
		{"ablations", "design-choice isolation (not a paper figure)", Ablations},
		{"hotloop", "fused hot loop vs split loops, accel on/off (not a paper figure)", Hotloop},
		{"lintstats", "grammar diagnostics over the corpus (not a paper figure)", Lintstats},
		{"latency", "emission latency vs the K bound (not a paper figure)", Latency},
		{"obsoverhead", "always-on observability counters vs no-obs build (not a paper figure)", ObsOverhead},
		{"certstats", "resource-certificate derivation and verification cost per catalog grammar (not a paper figure)", Certstats},
		{"biggrammar", "byte-class compressed tables vs dense baseline, catalog and 1k-10k-rule grammars (not a paper figure)", Biggrammar},
		{"bpe", "BPE vocab-DFA compile and streaming encode at 1k-32k merges (not a paper figure)", BPE},
		{"multicore", "shard scheduler scaling vs workers: concurrent streams through the serving admission path (not a paper figure)", Multicore},
	}
}

// LookupExperiment finds an experiment by name.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, names)
}
