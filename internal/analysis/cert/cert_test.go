package cert_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// build compiles g (already parsed), analyzes it, builds the default
// engine, and certifies — the full production pipeline.
func build(t *testing.T, m *tokdfa.Machine) (analysis.Result, *core.Tokenizer, *cert.Certificate) {
	t.Helper()
	res := analysis.Analyze(m)
	if !res.Bounded() {
		t.Fatal("grammar unexpectedly unbounded")
	}
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cert.New(m, res, tok)
	if err != nil {
		t.Fatal(err)
	}
	return res, tok, c
}

// TestNewAndVerifyCatalog: every bounded catalog grammar certifies, the
// certificate's file half passes verification — each bound recomputed
// or replayed, none taken on faith — and its engine half is exactly the
// engine it was derived from.
func TestNewAndVerifyCatalog(t *testing.T) {
	for _, spec := range grammars.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Machine()
			res := analysis.Analyze(m)
			if !res.Bounded() {
				tok, err := core.NewWithK(m, 1, tepath.Limits{})
				if err == nil {
					if _, err := cert.New(m, res, tok); err == nil {
						t.Fatal("cert.New accepted an unbounded grammar")
					}
				}
				return
			}
			res, tok, c := build(t, m)
			if err := c.VerifyStatic(m, res.MaxTND); err != nil {
				t.Fatalf("fresh certificate fails verification: %v", err)
			}
			if c.Recertified || c.BindEngine(tok) {
				t.Error("fresh certificate's engine half differs from its engine")
			}
			if c.DelayK != res.MaxTND {
				t.Errorf("DelayK = %d, want %d", c.DelayK, res.MaxTND)
			}
			if c.DelayK > c.DichotomyBound {
				t.Errorf("K=%d exceeds its own dichotomy bound %d", c.DelayK, c.DichotomyBound)
			}
			if c.DelayK > 0 && (len(c.WitnessU) == 0 || len(c.WitnessV)-len(c.WitnessU) != c.DelayK) {
				t.Errorf("witness pair %q -> %q does not realize K=%d", c.WitnessU, c.WitnessV, c.DelayK)
			}
			if c.TableBytes != tok.TableBytes() || c.RingBytes != tok.RingBytes() {
				t.Error("byte bounds disagree with the engine they were derived from")
			}
			if cov := c.AccelCoverage(); cov < 0 || cov > 1 {
				t.Errorf("accel coverage %f outside [0,1]", cov)
			}
			if c.ResidentBytes() != c.TableBytes {
				t.Error("ResidentBytes != TableBytes")
			}
			if c.StreamBytes() != c.RingBytes+c.CarryRetainedCap {
				t.Error("StreamBytes != ring + carry cap")
			}
		})
	}
}

// TestK0Certificate: a grammar with max-TND 0 certifies with no witness
// pair, and VerifyStatic rejects one that grew a witness anyway.
func TestK0Certificate(t *testing.T) {
	g, err := tokdfa.ParseGrammar("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	m, err := tokdfa.Compile(g, tokdfa.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.Analyze(m)
	if res.MaxTND != 0 {
		t.Skipf("grammar has max-TND %d, want 0", res.MaxTND)
	}
	res, _, c := build(t, m)
	if len(c.WitnessU) != 0 || len(c.WitnessV) != 0 {
		t.Fatalf("K=0 certificate carries witness %q -> %q", c.WitnessU, c.WitnessV)
	}
	if err := c.VerifyStatic(m, res.MaxTND); err != nil {
		t.Fatal(err)
	}
	bad := *c
	bad.WitnessU, bad.WitnessV = []byte("a"), []byte("a")
	if err := bad.VerifyStatic(m, res.MaxTND); !errors.Is(err, cert.ErrMismatch) {
		t.Fatalf("witness on K=0 cert: err = %v, want ErrMismatch", err)
	}
}

// TestVerifyStaticRejections: each tampered field is caught by the
// static half alone.
func TestVerifyStaticRejections(t *testing.T) {
	m := grammars.JSON().Machine()
	res, _, good := build(t, m)

	tamper := map[string]func(*cert.Certificate){
		"hash":        func(c *cert.Certificate) { c.GrammarHash += "00" },
		"delayK":      func(c *cert.Certificate) { c.DelayK++ },
		"dichotomy":   func(c *cert.Certificate) { c.DichotomyBound-- },
		"carry":       func(c *cert.Certificate) { c.CarryRetainedCap++ },
		"rework":      func(c *cert.Certificate) { c.ParallelReworkX = 3 },
		"witness-gap": func(c *cert.Certificate) { c.WitnessV = append(c.WitnessV, c.WitnessV[0]) },
		"witness-u":   func(c *cert.Certificate) { c.WitnessU = nil; c.WitnessV = c.WitnessV[:c.DelayK] },
		"sparse":      func(c *cert.Certificate) { c.SparseTableBytes = 64 },
	}
	for name, f := range tamper {
		t.Run(name, func(t *testing.T) {
			bad := *good
			bad.WitnessU = append([]byte(nil), good.WitnessU...)
			bad.WitnessV = append([]byte(nil), good.WitnessV...)
			f(&bad)
			if err := bad.VerifyStatic(m, res.MaxTND); !errors.Is(err, cert.ErrMismatch) {
				t.Fatalf("err = %v, want ErrMismatch", err)
			}
		})
	}

	// And a certificate must never attach to an unbounded machine.
	if err := good.VerifyStatic(m, analysis.Infinite); !errors.Is(err, cert.ErrMismatch) {
		t.Fatalf("unbounded attach: err = %v, want ErrMismatch", err)
	}
}

// TestVerifyAgainstRejections: a stored engine half that drifted from
// the engine actually built is rebound, not refused — each tampered
// field comes back derived from the engine, the file half is untouched,
// and the change is reported so a loader can flag it.
func TestVerifyAgainstRejections(t *testing.T) {
	m := grammars.JSON().Machine()
	res, tok, good := build(t, m)

	tamper := map[string]func(*cert.Certificate){
		"mode":   func(c *cert.Certificate) { c.EngineMode = "imaginary" },
		"ring":   func(c *cert.Certificate) { c.RingBytes += 8 },
		"tables": func(c *cert.Certificate) { c.TableBytes-- },
		"accel":  func(c *cert.Certificate) { c.AccelStates++ },
		"slots":  func(c *cert.Certificate) { c.AccelSlots++ },
	}
	for name, f := range tamper {
		t.Run(name, func(t *testing.T) {
			bad := *good
			f(&bad)
			if !bad.BindEngine(tok) {
				t.Fatal("BindEngine reported no change for a tampered engine half")
			}
			if !reflect.DeepEqual(&bad, good) {
				t.Fatalf("rebound certificate differs from the derived one:\n got  %+v\n want %+v", bad, *good)
			}
			if err := bad.VerifyStatic(m, res.MaxTND); err != nil {
				t.Fatalf("rebinding broke the file half: %v", err)
			}
		})
	}
}

// TestWrongEngineK: cert.New refuses an engine whose K disagrees with
// the analysis — the bounds would describe a machine nobody built.
func TestWrongEngineK(t *testing.T) {
	m := grammars.JSON().Machine()
	res := analysis.Analyze(m)
	tok, err := core.NewWithK(m, res.MaxTND+1, tepath.Limits{})
	if err != nil {
		t.Skipf("cannot build K+1 engine: %v", err)
	}
	if _, err := cert.New(m, res, tok); err == nil {
		t.Fatal("cert.New accepted an engine with the wrong K")
	}
}

// TestJSONShape: the JSON rendering keeps its stable keys (shared by
// tnd -certify -json, streamtok -stats json, and /metrics).
func TestJSONShape(t *testing.T) {
	m := grammars.JSON().Machine()
	_, _, c := build(t, m)
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"grammar_hash", "delay_k", "dichotomy_bound", "engine_mode",
		"ring_bytes", "carry_retained_cap", "table_bytes",
		"accel_states", "accel_slots", "accel_coverage", "parallel_rework_x",
		"recertified",
	} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON missing key %q", key)
		}
	}
}

// TestRecertifiedRendering: the Recertified flag shows in String and
// JSON, and only when set.
func TestRecertifiedRendering(t *testing.T) {
	_, _, c := build(t, grammars.JSON().Machine())
	if strings.Contains(c.String(), "recertified") {
		t.Errorf("fresh certificate renders as recertified: %s", c)
	}
	r := *c
	r.Recertified = true
	if !strings.HasSuffix(r.String(), " (recertified)") {
		t.Errorf("String() = %q, want a (recertified) suffix", r.String())
	}
	for _, tc := range []struct {
		c    *cert.Certificate
		want bool
	}{{c, false}, {&r, true}} {
		blob, err := json.Marshal(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		var decoded struct {
			Recertified bool `json:"recertified"`
		}
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		if decoded.Recertified != tc.want {
			t.Errorf("JSON recertified = %v, want %v", decoded.Recertified, tc.want)
		}
	}
}
