package bench

import (
	"fmt"

	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// Ablations isolates the design choices DESIGN.md calls out:
//
//   - the Fig. 5 K=1 specialization vs the general Fig. 6 machinery (run
//     on a max-TND-1 grammar with the overestimate K=2);
//   - the eagerly materialized TeDFA vs the lazily determinized one;
//   - token-text delivery (zero-copy chunk slices) vs offsets-only
//     consumption (the emit callback's cost floor).
func Ablations(cfg Config) Table {
	t := Table{
		Title:  "Ablations: design-choice isolation (MB/s)",
		Header: []string{"ablation", "variant", "MB/s"},
	}
	emit := func(token.Token, []byte) {}
	runOn := func(tok *core.Tokenizer, input []byte) string {
		d := timeIt(cfg.Trials, func() {
			s := tok.NewStreamer()
			s.Feed(input, emit)
			s.Close(emit)
		})
		return mbps(len(input), d)
	}

	// Fig. 5 specialization vs general machinery, on CSV (max-TND 1).
	csvSpec, err := grammars.Lookup("csv")
	if err != nil {
		panic(err)
	}
	csvIn, err := workload.Generate("csv", cfg.Seed, cfg.size(4_000_000))
	if err != nil {
		panic(err)
	}
	mCSV := csvSpec.Machine()
	k1, err := core.NewWithKBudget(mCSV, 1, tepath.Limits{}, -1)
	if err != nil {
		panic(err)
	}
	gen, err := core.NewWithKBudget(mCSV, 2, tepath.Limits{}, -1)
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows,
		[]string{"fig5-vs-fig6", "fig5 K=1 table", runOn(k1, csvIn)},
		[]string{"fig5-vs-fig6", "fig6 general (K=2)", runOn(gen, csvIn)},
	)

	// Eager vs lazy TeDFA, on JSON (max-TND 3).
	jsonSpec, err := grammars.Lookup("json")
	if err != nil {
		panic(err)
	}
	jsonIn, err := workload.Generate("json", cfg.Seed, cfg.size(4_000_000))
	if err != nil {
		panic(err)
	}
	mJSON := jsonSpec.Machine()
	eager, err := core.NewWithKBudget(mJSON, 3, tepath.Limits{}, -1)
	if err != nil {
		panic(err)
	}
	lazy, err := core.NewWithK(mJSON, 3, tepath.Limits{MaxDFAStates: 1})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows,
		[]string{"tedfa", fmt.Sprintf("eager (%d states)", eager.TeDFASize()), runOn(eager, jsonIn)},
		[]string{"tedfa", "lazy (per-stream)", runOn(lazy, jsonIn)},
	)

	// Emit cost: token text consumed vs offsets only.
	var sink int
	withText := func(_ token.Token, text []byte) {
		if len(text) > 0 {
			sink += int(text[0])
		}
	}
	offsetsOnly := func(tk token.Token, _ []byte) { sink += tk.End }
	dText := timeIt(cfg.Trials, func() {
		s := k1.NewStreamer()
		s.Feed(csvIn, withText)
		s.Close(withText)
	})
	dOff := timeIt(cfg.Trials, func() {
		s := k1.NewStreamer()
		s.Feed(csvIn, offsetsOnly)
		s.Close(offsetsOnly)
	})
	t.Rows = append(t.Rows,
		[]string{"emit", "touch token text", mbps(len(csvIn), dText)},
		[]string{"emit", "offsets only", mbps(len(csvIn), dOff)},
	)
	return t
}
