package server

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/machinefile"
	"streamtok/internal/tepath"
	"streamtok/internal/workload"
)

// residentBytesOf compiles rules in a throwaway registry and returns
// the grammar's certified resident footprint — the number every budget
// decision in these tests is phrased in.
func residentBytesOf(t *testing.T, rules ...string) int64 {
	t.Helper()
	ent, err := NewRegistry(0).Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	return int64(ent.Tok.Certificate().ResidentBytes())
}

// TestRegistryBudgetEviction: when a new grammar's certified bytes do
// not fit next to the resident set, the LRU entry is evicted by bytes —
// the budget holds, and the evicted grammar recompiles on demand.
func TestRegistryBudgetEviction(t *testing.T) {
	a, b := []string{"a+"}, []string{"b+", "c+"}
	rbA, rbB := residentBytesOf(t, a...), residentBytesOf(t, b...)

	r := NewRegistry(0)
	// Room for the larger of the two, not for both together.
	budget := max64(rbA, rbB) + min64(rbA, rbB)/2
	r.SetMemBudget(budget)

	if _, err := r.Compile(a); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ResidentBytes != rbA {
		t.Fatalf("resident bytes = %d, want %d", st.ResidentBytes, rbA)
	}
	if _, err := r.Compile(b); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.ResidentBytes != rbB {
		t.Errorf("resident bytes after eviction = %d, want %d (only b resident)", st.ResidentBytes, rbB)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.ResidentBytes+st.PinnedBytes > st.MemBudget {
		t.Errorf("budget violated: %d resident + %d pinned > %d", st.ResidentBytes, st.PinnedBytes, st.MemBudget)
	}
	// The evicted grammar still serves — it just pays its compile again.
	if _, err := r.Compile(a); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryBudgetReject: a grammar whose certified footprint exceeds
// even an empty cache is rejected with its certificate attached, the
// rejection is negative-cached, and the budget reject counter moves.
func TestRegistryBudgetReject(t *testing.T) {
	rules := []string{"[0-9]+", "[ ]+"}
	rb := residentBytesOf(t, rules...)

	r := NewRegistry(0)
	r.SetMemBudget(rb - 1)
	_, err := r.Compile(rules)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectError", err)
	}
	if rej.Cert == nil {
		t.Fatal("budget rejection carries no certificate")
	}
	if int64(rej.Cert.ResidentBytes()) != rb {
		t.Errorf("rejection cert claims %d B, want %d", rej.Cert.ResidentBytes(), rb)
	}
	if !strings.Contains(rej.Diagnostic, "mem-budget") || !strings.Contains(rej.Diagnostic, "certificate:") {
		t.Errorf("diagnostic missing code or certificate:\n%s", rej.Diagnostic)
	}
	// Negative-cached: retrying must not re-pay the compile.
	_, err2 := r.Compile(rules)
	var rej2 *RejectError
	if !errors.As(err2, &rej2) || rej2 != rej {
		t.Fatalf("second compile err = %v, want the cached rejection", err2)
	}
	st := r.Stats()
	if st.BudgetRejects != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 budget reject, 1 miss, 1 hit", st)
	}
}

// TestRegistryBudgetPinned: pinned machine files charge the budget
// first — a pin that overflows it fails loudly at load, and a pin that
// fits shrinks what ad-hoc grammars may use.
func TestRegistryBudgetPinned(t *testing.T) {
	dir := t.TempDir()
	g, err := streamtok.CatalogGrammar("json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shipped.stok")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamtok.SaveCompiled(g, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tok, _, err := streamtok.LoadCompiled(mustOpen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	rbPin := int64(tok.Certificate().ResidentBytes())

	// Over budget: refused at load, nothing pinned.
	r := NewRegistry(0)
	r.SetMemBudget(rbPin - 1)
	if _, err := r.LoadMachine(path); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want a budget overflow", err)
	}
	if st := r.Stats(); st.Pinned != 0 || st.PinnedBytes != 0 {
		t.Errorf("failed pin left state behind: %+v", st)
	}

	// Fits exactly: pinned, and an ad-hoc grammar needing more than the
	// zero remaining bytes is rejected.
	r = NewRegistry(0)
	r.SetMemBudget(rbPin)
	if _, err := r.LoadMachine(path); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.PinnedBytes != rbPin {
		t.Errorf("pinned bytes = %d, want %d", st.PinnedBytes, rbPin)
	}
	_, err = r.Compile([]string{"a+"})
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectError (no budget left after the pin)", err)
	}
}

// TestServerBudget422AndStatusz: over HTTP, a budget rejection is a 422
// whose body carries the certificate, /statusz shows the budget line
// and each resident grammar's cert, and /metrics embeds the cert JSON.
func TestServerBudget422AndStatusz(t *testing.T) {
	rb := residentBytesOf(t, "[0-9]+")

	reg := NewRegistry(0)
	reg.SetMemBudget(rb - 1)
	_, ts := newTestServer(t, Config{Registry: reg})

	resp, err := http.Post(ts.URL+"/tokenize?rule=%5B0-9%5D%2B", "application/octet-stream", strings.NewReader("123"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body:\n%s", resp.StatusCode, body)
	}
	for _, want := range []string{"mem-budget", "certificate:", "tables"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("422 body missing %q:\n%s", want, body)
		}
	}

	// A grammar that fits makes it resident, with its cert visible. The
	// rejection above is negative-cached (budget changes don't flush it
	// — the budget is set before serving), so use a fresh server.
	reg2 := NewRegistry(0)
	reg2.SetMemBudget(rb)
	_, ts2 := newTestServer(t, Config{Registry: reg2})
	ts = ts2
	if _, err := reg2.Compile([]string{"[0-9]+"}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	statusz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"budget:", "budget rejects", "cert:", "dichotomy"} {
		if !strings.Contains(string(statusz), want) {
			t.Errorf("/statusz missing %q:\n%s", want, statusz)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"mem_budget"`, `"budget_rejects"`, `"cert"`, `"table_bytes"`, `"delay_k"`} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// TestRegistryRepinRefusalKeepsCharge: re-pinning a name with a source
// that overflows the budget is refused before any state changes, so the
// old entry stays pinned, served and charged — for a machine file and
// for a vocabulary alike.
func TestRegistryRepinRefusalKeepsCharge(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"old", "new"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeMachine := func(path, grammar string) {
		g, err := streamtok.CatalogGrammar(grammar)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := streamtok.SaveCompiled(g, f); err != nil {
			t.Fatal(err)
		}
	}
	writeVocab := func(path string, merges int) {
		v, err := streamtok.TrainVocab(workload.Prompts(41, 1<<16), merges, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, v.WriteTiktoken(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeMachine(filepath.Join(dir, "old", "m.stok"), "csv")
	writeMachine(filepath.Join(dir, "new", "m.stok"), "json")
	writeVocab(filepath.Join(dir, "old", "v.tiktoken"), 100)
	writeVocab(filepath.Join(dir, "new", "v.tiktoken"), 600)

	for _, c := range []struct {
		file   string
		load   func(*Registry, string) (*Entry, error)
		lookup func(*Registry, string) (*Entry, error)
	}{
		{"m.stok", (*Registry).LoadMachine, (*Registry).Lookup},
		{"v.tiktoken", (*Registry).LoadVocab, (*Registry).LookupVocab},
	} {
		r := NewRegistry(0)
		old, err := c.load(r, filepath.Join(dir, "old", c.file))
		if err != nil {
			t.Fatal(err)
		}
		rbOld := int64(old.Tok.Certificate().ResidentBytes())
		fresh, err := c.load(NewRegistry(0), filepath.Join(dir, "new", c.file))
		if err != nil {
			t.Fatal(err)
		}
		rbNew := int64(fresh.Tok.Certificate().ResidentBytes())
		if rbNew <= rbOld+1 {
			t.Fatalf("%s: replacement needs %d B, not more than the old %d B + 1", c.file, rbNew, rbOld)
		}
		r.SetMemBudget(rbOld + 1)
		if _, err := c.load(r, filepath.Join(dir, "new", c.file)); err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("%s: re-pin err = %v, want a budget overflow", c.file, err)
		}
		if st := r.Stats(); st.Pinned+st.Vocabs != 1 || st.PinnedBytes != rbOld {
			t.Errorf("%s: after the refused re-pin, stats = %+v; want one pin charged %d B", c.file, st, rbOld)
		}
		name := strings.TrimSuffix(c.file, filepath.Ext(c.file))
		if got, err := c.lookup(r, name); err != nil || got != old {
			t.Errorf("%s: Lookup(%s) = %v, %v; want the old entry still served", c.file, name, got, err)
		}
	}
}

// TestRegistryRecertifiedPin: a v3 machine file whose stored engine half
// disagrees with the engine this build constructs — written here with
// an honest CRC, so only the certificate's claims are off — still pins.
// It is counted and shown as recertified, and the budget is charged the
// bytes derived from the built engine, never the stored claim: an
// inflated claim fits a budget of exactly the derived bytes, and an
// understated one cannot sneak under a budget one byte short of them.
func TestRegistryRecertifiedPin(t *testing.T) {
	m := grammars.JSON().Machine()
	res := analysis.Analyze(m)
	inner, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := cert.New(m, res, inner)
	if err != nil {
		t.Fatal(err)
	}
	derived := int64(good.ResidentBytes())
	write := func(name string, tamper func(*cert.Certificate)) string {
		bad := *good
		tamper(&bad)
		var buf bytes.Buffer
		if err := machinefile.EncodeWithCert(&buf, m, res.MaxTND, &bad); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".mach")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	inflated := write("inflated", func(c *cert.Certificate) {
		c.EngineMode, c.TableBytes, c.AccelStates = "split-general", c.TableBytes+4096, 0
	})
	reg := NewRegistry(0)
	reg.SetMemBudget(derived)
	ent, err := reg.LoadMachine(inflated)
	if err != nil {
		t.Fatalf("recertified file refused: %v", err)
	}
	c := ent.Tok.Certificate()
	if !c.Recertified || c.EngineMode != good.EngineMode || int64(c.ResidentBytes()) != derived {
		t.Errorf("loaded cert %s, want the derived %s marked recertified", c, good)
	}
	st := reg.Stats()
	if st.Recertified != 1 || st.PinnedBytes != derived {
		t.Errorf("stats recertified=%d pinned=%d B, want 1 and %d B", st.Recertified, st.PinnedBytes, derived)
	}
	_, ts := newTestServer(t, Config{Registry: reg})
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	statusz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"1 recertified", "(recertified)"} {
		if !strings.Contains(string(statusz), want) {
			t.Errorf("/statusz missing %q:\n%s", want, statusz)
		}
	}

	understated := write("understated", func(c *cert.Certificate) { c.TableBytes = 1 })
	reg = NewRegistry(0)
	reg.SetMemBudget(derived - 1)
	if _, err := reg.LoadMachine(understated); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want a budget overflow at the derived bytes", err)
	}
	if st := reg.Stats(); st.Pinned != 0 || st.PinnedBytes != 0 || st.Recertified != 0 {
		t.Errorf("refused pin left state behind: %+v", st)
	}
}
