package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"streamtok"
)

func TestRegistryLookupCatalog(t *testing.T) {
	r := NewRegistry(0)
	a, err := r.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "json" || a.Hash == "" || a.Tok == nil {
		t.Fatalf("bad entry: %+v", a)
	}
	b, err := r.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second lookup should return the cached entry")
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 resident", st)
	}
	if _, err := r.Lookup("no-such-grammar"); err == nil {
		t.Error("unknown grammar should fail")
	}
}

func TestRegistryCompileAdhoc(t *testing.T) {
	r := NewRegistry(0)
	a, err := r.Compile([]string{"[0-9]+", "[ ]+"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "adhoc" {
		t.Errorf("name = %q, want adhoc", a.Name)
	}
	b, err := r.Compile([]string{"[0-9]+", "[ ]+"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical rule lists should share one entry")
	}
	// Rule order is part of grammar identity (maximal munch ties break
	// by rule index), so the reordered list must be a distinct grammar.
	c, err := r.Compile([]string{"[ ]+", "[0-9]+"})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("reordered rules must not share the entry")
	}
	if _, err := r.Compile([]string{"[0-9"}); err == nil {
		t.Error("malformed rule should fail")
	}
}

func TestRegistryUnboundedRejection(t *testing.T) {
	r := NewRegistry(0)
	// The catalog C grammar has unbounded max-TND (block comments).
	_, err := r.Lookup("c")
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectError", err)
	}
	if !strings.Contains(rej.Diagnostic, "unbounded-tnd") {
		t.Errorf("diagnostic missing lint code:\n%s", rej.Diagnostic)
	}
	if !strings.Contains(rej.Error(), "grammar c rejected") {
		t.Errorf("Error() = %q", rej.Error())
	}
	// The rejection is negative-cached: a second lookup is a hit and
	// does not re-lint.
	_, err2 := r.Lookup("c")
	var rej2 *RejectError
	if !errors.As(err2, &rej2) || rej2 != rej {
		t.Fatalf("second lookup err = %v, want the cached rejection", err2)
	}
	st := r.Stats()
	if st.Rejects != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want exactly one reject and one hit", st)
	}
}

func TestRegistryEviction(t *testing.T) {
	r := NewRegistry(2)
	rules := [][]string{
		{"a+"}, {"b+"}, {"c+"},
	}
	for _, rs := range rules {
		if _, err := r.Compile(rs); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Resident != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 resident / 1 eviction", st)
	}
	// The evicted grammar recompiles on demand.
	if _, err := r.Compile(rules[0]); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry recompiled)", st.Misses)
	}
}

func TestRegistrySingleflight(t *testing.T) {
	r := NewRegistry(0)
	const n = 16
	ents := make([]*Entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, err := r.Lookup("csv")
			if err != nil {
				t.Error(err)
				return
			}
			ents[i] = ent
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ents[i] != ents[0] {
			t.Fatal("concurrent lookups returned distinct entries")
		}
	}
	if st := r.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one compile shared by all)", st.Misses)
	}
}

func TestRegistryLoadMachine(t *testing.T) {
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

	r := NewRegistry(0)
	ent, err := r.LoadMachine(path)
	if err != nil {
		t.Fatal(err)
	}
	if ent.Name != "shipped" {
		t.Errorf("name = %q, want the file stem", ent.Name)
	}
	// Pinned entries resolve by name ahead of the catalog and survive
	// any amount of cache pressure.
	got, err := r.Lookup("shipped")
	if err != nil || got != ent {
		t.Fatalf("Lookup(shipped) = %v, %v; want the pinned entry", got, err)
	}
	if st := r.Stats(); st.Pinned != 1 {
		t.Errorf("pinned = %d, want 1", st.Pinned)
	}
	if _, err := r.LoadMachine(filepath.Join(dir, "missing.stok")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestRegistryLoadMachineUnbounded: a stored machine whose max-TND is the
// unbounded sentinel round-trips through the file format intact, and the
// registry refuses to serve it with the same lint-style diagnostic an
// ad-hoc unbounded grammar gets.
func TestRegistryLoadMachineUnbounded(t *testing.T) {
	dir := t.TempDir()
	g, err := streamtok.CatalogGrammar("c")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cgrammar.stok")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamtok.SaveCompiled(g, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := NewRegistry(0)
	_, err = r.LoadMachine(path)
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectError", err)
	}
	if rej.Name != "cgrammar" {
		t.Errorf("reject name = %q, want the file stem", rej.Name)
	}
	if !strings.Contains(rej.Diagnostic, "unbounded-tnd") {
		t.Errorf("diagnostic missing lint code:\n%s", rej.Diagnostic)
	}
	if st := r.Stats(); st.Pinned != 0 {
		t.Error("rejected machine must not be pinned")
	}
}

func TestRegistryLoadMachineDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"json", "csv"} {
		g, err := streamtok.CatalogGrammar(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, name+".stok"))
		if err != nil {
			t.Fatal(err)
		}
		if err := streamtok.SaveCompiled(g, f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	r := NewRegistry(0)
	names, err := r.LoadMachineDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "csv" || names[1] != "json" {
		t.Errorf("names = %v", names)
	}

	// A corrupt file anywhere in the directory aborts the load: a fleet
	// must not come up with a silently partial grammar set.
	if err := os.WriteFile(filepath.Join(dir, "broken.stok"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegistry(0).LoadMachineDir(dir); err == nil {
		t.Error("corrupt machine file should abort the directory load")
	}
}

func TestRegistryEntriesSorted(t *testing.T) {
	r := NewRegistry(0)
	for _, name := range []string{"json", "csv", "tsv"} {
		if _, err := r.Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
	ents := r.Entries()
	if len(ents) != 3 {
		t.Fatalf("got %d entries", len(ents))
	}
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Name > ents[i].Name {
			t.Errorf("entries out of order: %q before %q", ents[i-1].Name, ents[i].Name)
		}
	}
}

// TestRegistryAliases: a catalog name or rule list resolved once maps to
// its hash, so repeats take the hit path without building the grammar;
// the map never holds unknown names, loses keys with their evicted slot,
// yields to pinned names, and leaves the hit/miss counts as they were.
func TestRegistryAliases(t *testing.T) {
	r := NewRegistry(2)
	a, err := r.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	if hash, ok := r.aliases[aliasKey{name: "json"}]; !ok || hash != a.Hash {
		t.Fatalf("json alias = %q, %v; want %s", hash, ok, a.Hash)
	}
	if b, err := r.Lookup("json"); err != nil || b != a {
		t.Fatalf("aliased lookup = %v, %v; want the cached entry", b, err)
	}
	if _, err := r.Lookup("no-such-grammar"); err == nil {
		t.Fatal("unknown grammar should fail")
	}
	if _, ok := r.aliases[aliasKey{name: "no-such-grammar"}]; ok {
		t.Error("unknown name was aliased")
	}

	// A rule list is keyed by its raw text, apart from catalog names.
	rules := []string{"[0-9]+", "[ ]+"}
	c, err := r.Compile(rules)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := r.Compile(rules); err != nil || d != c {
		t.Fatalf("aliased compile = %v, %v; want the cached entry", d, err)
	}
	if _, err := r.Lookup(ruleKey(rules)); err == nil {
		t.Error("a catalog lookup resolved a rule-list key")
	}
	st := r.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}

	// Past capacity the LRU evicts json's slot, and its alias goes too.
	for _, rs := range [][]string{{"a+"}, {"b+"}, {"c+"}} {
		if _, err := r.Compile(rs); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.aliases) != 2 {
		t.Errorf("%d aliases after eviction, want one per resident slot (2)", len(r.aliases))
	}
	if _, ok := r.aliases[aliasKey{name: "json"}]; ok {
		t.Error("evicted json slot kept its alias")
	}
	if _, err := r.Lookup("json"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 6 {
		t.Errorf("misses = %d, want 6 (evicted json recompiled)", st.Misses)
	}

	// A machine pinned under an aliased name wins from then on.
	g, err := streamtok.CatalogGrammar("csv")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "json.stok")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := streamtok.SaveCompiled(g, f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	pinned, err := r.LoadMachine(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Lookup("json"); err != nil || got != pinned {
		t.Errorf("Lookup(json) = %v, %v; want the pinned machine", got, err)
	}
}
