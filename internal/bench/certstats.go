package bench

import (
	"fmt"
	"time"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
)

// Certstats measures the certification pipeline per catalog grammar:
// how long deriving a resource certificate takes on top of the compile,
// how long the load-time verification of its file half (recompute +
// witness replay) takes, and what the certificate claims. The point of
// the experiment is the cost asymmetry — verification must be cheap
// enough to run on every machinefile load, certification only runs at
// compile/emit time. (The engine half is derived on load, not checked.)
func Certstats(cfg Config) Table {
	const trials = 16

	t := Table{
		Title:  "Certstats: resource-certificate derivation and verification cost per catalog grammar",
		Header: []string{"grammar", "K", "dichotomy", "tables", "ring", "accel", "cert time", "file verify time"},
	}
	certified, unbounded := 0, 0
	for _, spec := range grammars.All() {
		m := spec.Machine()
		res := analysis.Analyze(m)
		if !res.Bounded() {
			unbounded++
			t.Rows = append(t.Rows, []string{spec.Name, "inf", "-", "-", "-", "-", "-", "-"})
			continue
		}
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(fmt.Sprintf("catalog grammar %s: %v", spec.Name, err))
		}

		var c *cert.Certificate
		start := time.Now()
		for i := 0; i < trials; i++ {
			c, err = cert.New(m, res, tok)
			if err != nil {
				panic(err)
			}
		}
		certTime := time.Since(start) / trials

		start = time.Now()
		for i := 0; i < trials; i++ {
			if err := c.VerifyStatic(m, res.MaxTND); err != nil {
				panic(fmt.Sprintf("catalog grammar %s: fresh certificate does not verify: %v", spec.Name, err))
			}
		}
		verifyTime := time.Since(start) / trials

		certified++
		t.Rows = append(t.Rows, []string{
			spec.Name,
			itoa(c.DelayK),
			itoa(c.DichotomyBound),
			fmt.Sprintf("%d B", c.TableBytes),
			fmt.Sprintf("%d B", c.RingBytes),
			fmt.Sprintf("%d/%d", c.AccelStates, c.AccelSlots),
			certTime.Round(time.Microsecond).String(),
			verifyTime.Round(time.Microsecond).String(),
		})
	}
	t.Note = fmt.Sprintf("%d catalog grammars: %d certified, %d unbounded (no certificate); times are means over %d runs, excluding compile and analysis",
		certified+unbounded, certified, unbounded, trials)
	return t
}
