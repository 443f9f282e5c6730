package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamtok"
	"streamtok/internal/workload"
)

// writeTestVocab trains a small vocabulary and writes it as a tiktoken
// rank file, returning the path and the vocabulary for reference
// encoding.
func writeTestVocab(t *testing.T, dir, name string) (string, *streamtok.Vocab) {
	t.Helper()
	v, err := streamtok.TrainVocab(workload.Prompts(41, 1<<17), 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".tiktoken")
	if err := os.WriteFile(path, v.WriteTiktoken(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, v
}

func TestRegistryLoadVocab(t *testing.T) {
	dir := t.TempDir()
	path, v := writeTestVocab(t, dir, "toy")
	reg := NewRegistry(0)
	ent, err := reg.LoadVocab(path)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Name != "toy" || ent.Hash != v.Hash() {
		t.Errorf("entry (%s, %s), want (toy, %s)", ent.Name, ent.Hash, v.Hash())
	}
	if ent.Vocab == nil || ent.Grammar != nil || ent.ruleTails != nil {
		t.Error("vocab entry should have Vocab set, no Grammar, no rule tails")
	}
	if got, err := reg.LookupVocab("toy"); err != nil || got != ent {
		t.Errorf("LookupVocab: %v, %v", got, err)
	}

	// Unknown names carry the loaded catalog.
	_, err = reg.LookupVocab("nope")
	nf, ok := err.(*NotFoundError)
	if !ok {
		t.Fatalf("unknown vocab: %T %v, want *NotFoundError", err, err)
	}
	if len(nf.Catalog) != 1 || nf.Catalog[0] != "toy" {
		t.Errorf("catalog %v, want [toy]", nf.Catalog)
	}

	// Vocab entries appear in Entries and the stats counters.
	ents := reg.Entries()
	if len(ents) != 1 || ents[0] != ent {
		t.Errorf("Entries() = %v", ents)
	}
	st := reg.Stats()
	if st.Vocabs != 1 || st.PinnedBytes <= 0 {
		t.Errorf("stats %+v: want 1 vocab with pinned bytes", st)
	}
}

// TestRegistryCompileTime: every kind of entry records its one-time
// build cost, and /metrics and /statusz show it per entry.
func TestRegistryCompileTime(t *testing.T) {
	dir := t.TempDir()
	vocabPath, _ := writeTestVocab(t, dir, "toy")
	g, err := streamtok.CatalogGrammar("csv")
	if err != nil {
		t.Fatal(err)
	}
	machinePath := filepath.Join(dir, "shipped.stok")
	f, err := os.Create(machinePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamtok.SaveCompiled(g, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := NewRegistry(0)
	vocab, err := reg.LoadVocab(vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := reg.LoadMachine(machinePath)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := reg.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	adhoc, err := reg.Compile([]string{"[a-z]+", " "})
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range []*Entry{vocab, machine, catalog, adhoc} {
		if ent.CompileTime <= 0 {
			t.Errorf("entry %s: CompileTime %v, want > 0", ent.Name, ent.CompileTime)
		}
	}
	// A cache hit reuses the entry, and with it the recorded time.
	if again, _ := reg.Lookup("json"); again.CompileTime != catalog.CompileTime {
		t.Errorf("cached entry CompileTime %v, want %v", again.CompileTime, catalog.CompileTime)
	}

	s := New(Config{Registry: reg})
	defer s.Close()
	for _, gm := range s.MetricsSnapshot().Grammars {
		if gm.CompileMS <= 0 {
			t.Errorf("metrics entry %s %s: compile_ms %v, want > 0", gm.Kind, gm.Name, gm.CompileMS)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if n := strings.Count(rec.Body.String(), "  compile:  "); n != 4 {
		t.Errorf("statusz shows %d compile lines, want 4:\n%s", n, rec.Body.String())
	}
}

func TestRegistryLoadVocabDir(t *testing.T) {
	dir := t.TempDir()
	writeTestVocab(t, dir, "b")
	writeTestVocab(t, dir, "a")
	reg := NewRegistry(0)
	names, err := reg.LoadVocabDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "a,b" {
		t.Errorf("names %v, want sorted [a b]", names)
	}
	if got := reg.VocabNames(); strings.Join(got, ",") != "a,b" {
		t.Errorf("VocabNames %v", got)
	}
}

func TestRegistryLoadVocabBudget(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestVocab(t, dir, "big")
	reg := NewRegistry(0)
	reg.SetMemBudget(1024) // far below any vocab DFA footprint
	if _, err := reg.LoadVocab(path); err == nil {
		t.Fatal("vocab pin over the memory budget accepted")
	}
	if len(reg.VocabNames()) != 0 {
		t.Error("rejected vocab left pinned")
	}
}

func TestTokenizeVocab(t *testing.T) {
	dir := t.TempDir()
	path, v := writeTestVocab(t, dir, "toy")
	reg := NewRegistry(0)
	if _, err := reg.LoadVocab(path); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Registry: reg})

	input := string(workload.Prompts(9, 1<<12))
	want := v.Encode(nil, []byte(input))
	resp, err := http.Post(ts.URL+"/tokenize?vocab=toy", "application/octet-stream", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if g := resp.Header.Get("X-Streamtok-Grammar"); g != "toy" {
		t.Errorf("grammar header %q", g)
	}
	toks, sum := readNDJSON(t, resp.Body)
	if sum.Error != "" || sum.Complete == nil || !*sum.Complete {
		t.Fatalf("summary %+v", sum)
	}
	if len(toks) != len(want) {
		t.Fatalf("%d tokens streamed, reference %d", len(toks), len(want))
	}
	for i, tk := range toks {
		if tk.Rule != want[i] {
			t.Fatalf("token %d: rank %d, reference %d", i, tk.Rule, want[i])
		}
		// Ranks have no rule names; the NDJSON lines must omit "name".
		if tk.Name != "" {
			t.Fatalf("token %d has a name %q; vocab tokens are ranks", i, tk.Name)
		}
	}

	// The vocab entry shows up in /metrics with its kind, size, and
	// certificate, and on /statusz. Stats and Certificate marshal with
	// snake_case keys and have no unmarshallers, so decode the wire
	// shape directly.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m struct {
		Grammars []struct {
			Name      string `json:"name"`
			Kind      string `json:"kind"`
			Hash      string `json:"hash"`
			VocabSize int    `json:"vocab_size"`
			Engine    struct {
				Mode string `json:"mode"`
			} `json:"engine"`
			Cert struct {
				GrammarHash string `json:"grammar_hash"`
				TableBytes  int    `json:"table_bytes"`
			} `json:"cert"`
			Stats struct {
				BytesIn uint64 `json:"bytes_in"`
			} `json:"stats"`
		} `json:"grammars"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range m.Grammars {
		if g.Name != "toy" {
			continue
		}
		found = true
		if g.Kind != "vocab" || g.VocabSize != v.Size() || g.Hash != v.Hash() {
			t.Errorf("metrics entry %+v, want kind=vocab size=%d", g, v.Size())
		}
		if g.Cert.GrammarHash != v.Hash() || g.Cert.TableBytes <= 0 {
			t.Errorf("vocab metrics certificate %+v does not bind the vocab hash", g.Cert)
		}
		if !strings.HasPrefix(g.Engine.Mode, "bpe+") {
			t.Errorf("engine mode %q", g.Engine.Mode)
		}
		if g.Stats.BytesIn != uint64(len(input)) {
			t.Errorf("stats BytesIn %d, want %d", g.Stats.BytesIn, len(input))
		}
	}
	if !found {
		t.Fatal("vocab entry missing from /metrics")
	}

	sresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	page, _ := io.ReadAll(sresp.Body)
	if !strings.Contains(string(page), "vocab toy") {
		t.Errorf("statusz does not list the vocab entry:\n%s", page)
	}
	_ = s
}

func TestTokenizeVocabErrors(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestVocab(t, dir, "toy")
	reg := NewRegistry(0)
	if _, err := reg.LoadVocab(path); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Registry: reg})

	// Unknown vocab: 404 with the loaded catalog in the body.
	resp, err := http.Post(ts.URL+"/tokenize?vocab=nope", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown vocab: status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "toy") {
		t.Errorf("404 body does not list the catalog: %q", body)
	}

	// Mixing source selectors is a 400.
	resp, err = http.Post(ts.URL+"/tokenize?vocab=toy&grammar=json", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("vocab+grammar: status %d, want 400", resp.StatusCode)
	}
}
