// Command tnd runs the static analysis (Fig. 3) on a tokenization grammar
// and prints its NFA size, minimized DFA size, and maximum token neighbor
// distance.
//
// Usage:
//
//	tnd -catalog json               # analyze a built-in grammar
//	tnd '[0-9]+' '[ ]+'             # analyze rules given as arguments
//	tnd -f grammar.txt              # one rule per line
//	tnd -table1                     # print the paper's Table 1
//	tnd -lint '[0-9]*0' '[ ]+'      # full diagnostics with witnesses
//	tnd -lint -json -catalog csv    # machine-readable lint report
//	tnd -json -catalog json         # machine-readable analysis
//	tnd -certify -catalog json      # derive and verify the resource certificate
//
// Exit status 0 when the grammar has bounded max-TND (StreamTok applies),
// 1 when unbounded, 2 on usage errors. With -lint, additionally 3 when
// the linter finds error-severity defects (shadowed or unmatchable rules)
// in a grammar whose max-TND is bounded.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/bench"
	"streamtok/internal/core"
	"streamtok/internal/grammarfile"
	"streamtok/internal/grammarlint"
	"streamtok/internal/grammars"
	"streamtok/internal/machinefile"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

func main() {
	catalog := flag.String("catalog", "", "analyze a built-in grammar (see -listgrammars)")
	file := flag.String("f", "", "read rules from a file, one per line ('#' comments allowed)")
	table1 := flag.Bool("table1", false, "print the paper's Table 1 and exit")
	listGrammars := flag.Bool("listgrammars", false, "list built-in grammar names")
	witness := flag.Bool("witness", false, "print a witnessing token-extension path")
	emitMachine := flag.String("emit", "", "write the compiled machine (tables + analysis) to a file")
	dot := flag.Bool("dot", false, "print the tokenization DFA as Graphviz DOT and exit")
	lint := flag.Bool("lint", false, "run the full diagnostic suite (unbounded-TND root cause, shadowed rules, overlaps, ε-rules, error traps)")
	certify := flag.Bool("certify", false, "derive the static resource certificate, verify it, and print it")
	jsonOut := flag.Bool("json", false, "print the analysis (or, with -lint/-certify, the report) as JSON")
	fusedBudget := flag.Int("fused-budget", 0, "cap on fused action table bytes for -certify/-emit engines (0 = 16M default)")
	flag.Parse()

	if *listGrammars {
		for _, n := range grammars.Names() {
			fmt.Println(n)
		}
		return
	}
	if *table1 {
		fmt.Println(bench.Table1().Format())
		return
	}

	g, err := loadGrammar(*catalog, *file, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnd:", err)
		os.Exit(2)
	}
	if *lint {
		runLint(g, *jsonOut)
		return
	}
	m, err := tokdfa.Compile(g, tokdfa.Options{Minimize: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnd:", err)
		os.Exit(2)
	}
	if *dot {
		if err := m.DFA.WriteDOT(os.Stdout, g.RuleName); err != nil {
			fmt.Fprintln(os.Stderr, "tnd:", err)
			os.Exit(2)
		}
		return
	}
	res := analysis.Analyze(m)
	if *certify {
		runCertify(m, res, *jsonOut, *fusedBudget)
		return
	}
	if *jsonOut {
		// Render through the public Analysis type so tnd -json and the
		// library's MarshalJSON stay one format.
		out := streamtok.Analysis{
			MaxTND:  res.MaxTND,
			Bounded: res.Bounded(),
			NFASize: res.NFASize,
			DFASize: res.DFASize,
		}
		if u, v, ok := analysis.WitnessStrings(m, res); ok {
			out.WitnessU, out.WitnessV = u, v
		}
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnd:", err)
			os.Exit(2)
		}
		fmt.Println(string(blob))
		if !res.Bounded() {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("grammar:   %s\n", g.String())
	fmt.Printf("nfa size:  %d\n", res.NFASize)
	fmt.Printf("dfa size:  %d (minimized)\n", res.DFASize)
	fmt.Printf("max-TND:   %s\n", res.String())
	if res.Bounded() {
		fmt.Printf("verdict:   StreamTok applies (lookahead %s bytes)\n", res.String())
	} else {
		fmt.Printf("verdict:   unbounded; use an offline tokenizer or adapt the grammar\n")
	}
	if *witness && len(res.Witness) > 0 {
		fmt.Printf("witness:   DFA state path %v\n", res.Witness)
		if u, v, ok := analysis.WitnessStrings(m, res); ok {
			fmt.Printf("pair:      %q -> %q (distance %d)\n", u, v, len(v)-len(u))
		}
	}
	if *emitMachine != "" {
		if err := writeMachine(*emitMachine, m, res, *fusedBudget); err != nil {
			fmt.Fprintln(os.Stderr, "tnd:", err)
			os.Exit(2)
		}
		fmt.Printf("machine:   wrote %s\n", *emitMachine)
	}
	if !res.Bounded() {
		os.Exit(1)
	}
}

// runLint prints the diagnostic report and exits: 0 when StreamTok
// applies and no error-severity defects were found, 1 for unbounded
// max-TND, 3 for other error-severity defects.
func runLint(g *tokdfa.Grammar, jsonOut bool) {
	rep, err := grammarlint.Run(g, grammarlint.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnd:", err)
		os.Exit(2)
	}
	if jsonOut {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnd:", err)
			os.Exit(2)
		}
		fmt.Println(string(blob))
	} else {
		fmt.Print(rep.Format())
	}
	exit := 0
	for _, d := range rep.Diags {
		if d.Code == grammarlint.CodeUnboundedTND {
			os.Exit(1)
		}
		if d.Severity == grammarlint.SeverityError {
			exit = 3
		}
	}
	os.Exit(exit)
}

// runCertify derives the static resource certificate for the grammar's
// engine, verifies its file half (the same pass a loader applies at
// decode), and prints it. Exits 1 when the grammar is unbounded (no
// certificate exists), 2 when certification or verification fails —
// either means the toolchain is broken.
func runCertify(m *tokdfa.Machine, res analysis.Result, jsonOut bool, fusedBudget int) {
	if !res.Bounded() {
		fmt.Fprintf(os.Stderr, "tnd: grammar %s has unbounded max-TND; no resource certificate exists\n", m.Grammar.String())
		os.Exit(1)
	}
	inner, err := core.NewWithKBudget(m, res.MaxTND, tepath.Limits{}, fusedBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnd:", err)
		os.Exit(2)
	}
	c, err := cert.New(m, res, inner)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnd: certify:", err)
		os.Exit(2)
	}
	if err := c.VerifyStatic(m, res.MaxTND); err != nil {
		fmt.Fprintln(os.Stderr, "tnd: certificate failed its own verification:", err)
		os.Exit(2)
	}
	if jsonOut {
		blob, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnd:", err)
			os.Exit(2)
		}
		fmt.Println(string(blob))
		return
	}
	fmt.Printf("grammar:   %s\n", m.Grammar.String())
	fmt.Printf("hash:      %s\n", c.GrammarHash)
	fmt.Printf("cert:      %s\n", c)
	fmt.Printf("verified:  file half recomputed, witness replayed; engine half derived from the built engine\n")
}

func writeMachine(path string, m *tokdfa.Machine, res analysis.Result, fusedBudget int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = func() error {
		if !res.Bounded() {
			return machinefile.Encode(f, m, res.MaxTND)
		}
		// Bounded machines are emitted with their resource certificate so
		// loaders (streamtokd -machines, LoadCompiled) can verify the
		// file half of its cost claims before serving it. The engine
		// half records the engine this -fused-budget selects; a loader
		// derives its own from the engine it builds and marks the
		// certificate recertified when the two differ.
		inner, err := core.NewWithKBudget(m, res.MaxTND, tepath.Limits{}, fusedBudget)
		if err != nil {
			return err
		}
		c, err := cert.New(m, res, inner)
		if err != nil {
			return err
		}
		return machinefile.EncodeWithCert(f, m, res.MaxTND, c)
	}()
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadGrammar(catalog, file string, args []string) (*tokdfa.Grammar, error) {
	switch {
	case catalog != "":
		spec, err := grammars.Lookup(catalog)
		if err != nil {
			return nil, err
		}
		return spec.Grammar(), nil
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		// Named format ("NAME := regex") or one bare regex per line.
		if strings.Contains(string(data), ":=") {
			return grammarfile.ParseString(string(data))
		}
		var rules []string
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			rules = append(rules, line)
		}
		return tokdfa.ParseGrammar(rules...)
	case len(args) > 0:
		return tokdfa.ParseGrammar(args...)
	default:
		return nil, fmt.Errorf("no grammar given: use -catalog, -f, or rule arguments")
	}
}
