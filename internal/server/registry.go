// Package server is streamtokd's HTTP serving layer: a grammar registry
// that compiles each grammar once and shares its pooled Tokenizer across
// every connection, and an http.Handler that streams tokenized request
// bodies back as NDJSON or binary records under per-request deadlines,
// byte limits, a concurrency cap with load shedding, and graceful drain.
//
// The paper's bounded-memory guarantee is what makes this safe to
// expose: a stream's worst-case state is the K-byte delay ring plus a
// carry bounded by the longest token, independent of the stream length,
// so admission control multiplies a per-stream constant by the
// concurrency cap instead of guessing at input-dependent backtracking
// buffers. Grammars without that guarantee (unbounded max-TND) are
// rejected at the registry with a lint-style diagnostic, never served.
package server

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"streamtok"
	"streamtok/internal/grammarlint"
	"streamtok/internal/tokdfa"
)

// Entry is one compiled source resident in the registry — a grammar or
// a BPE vocabulary. Tok is shared by every request for the entry, so all
// of its connections draw from one streamer pool and fold into one
// observability aggregate.
type Entry struct {
	// Name is the catalog name, the machine or vocab file's stem, or
	// "adhoc" for rule-list grammars.
	Name string
	// Hash is the source's stable identity (Grammar.Hash or Vocab.Hash),
	// the registry's cache key.
	Hash    string
	Grammar *streamtok.Grammar // nil for vocabulary entries
	Vocab   *streamtok.Vocab   // nil for grammar entries
	Tok     *streamtok.Tokenizer
	// CompileTime is the wall-clock time the entry took to build, once:
	// the compile of a catalog or ad-hoc grammar, the decode of a machine
	// file, the load and compile of a vocabulary file.
	CompileTime time.Duration

	// quotedNames caches each rule name pre-quoted as a JSON string, so
	// the NDJSON hot path never re-escapes them. Nil for vocabulary
	// entries: Token.Rule is the rank, which has no name.
	quotedNames [][]byte
}

// RejectError is a grammar the registry refuses to serve. Diagnostic is
// a lint-style explanation (severity[code]: message, with indented
// detail lines) ready to hand to the client. Cert, when non-nil, is the
// grammar's resource certificate — attached to memory-budget rejections
// so the client can see exactly why the grammar is too expensive.
type RejectError struct {
	Name       string
	Diagnostic string
	Cert       *streamtok.Certificate
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("grammar %s rejected:\n%s", e.Name, e.Diagnostic)
}

// NotFoundError is a name the registry has nothing loaded under.
// Catalog lists what is loaded, so the client-facing 404 doubles as
// discovery.
type NotFoundError struct {
	Kind    string // "vocab"
	Name    string
	Catalog []string
}

func (e *NotFoundError) Error() string {
	if len(e.Catalog) == 0 {
		return fmt.Sprintf("unknown %s %q (none loaded; start streamtokd with -%s or -%s-dir)",
			e.Kind, e.Name, e.Kind, e.Kind)
	}
	return fmt.Sprintf("unknown %s %q; loaded: %s", e.Kind, e.Name, strings.Join(e.Catalog, ", "))
}

// RegistryStats counts registry traffic. Resident is the number of
// cached slots (including negative entries for rejected grammars);
// Pinned the machine-file entries exempt from eviction; Vocabs the
// pinned vocabulary entries (also exempt). ResidentBytes
// and PinnedBytes sum the certified table bytes of cached and pinned
// entries; MemBudget is the admission cap over their sum (0 = no
// budget), and BudgetRejects counts grammars refused because their
// certified footprint cannot fit it.
type RegistryStats struct {
	Resident      int    `json:"resident"`
	Pinned        int    `json:"pinned"`
	Vocabs        int    `json:"vocabs"`
	ResidentBytes int64  `json:"resident_bytes"`
	PinnedBytes   int64  `json:"pinned_bytes"`
	MemBudget     int64  `json:"mem_budget"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Rejects       uint64 `json:"rejects"`
	BudgetRejects uint64 `json:"budget_rejects"`
}

// slot is one cache cell: a future other requests for the same grammar
// wait on while the first compiles, then either an entry or a cached
// rejection. Rejections are cached too — linting an unbounded grammar
// costs a compile, and a client retrying a bad grammar must not pay (or
// charge us) that repeatedly.
type slot struct {
	done  chan struct{} // closed when ent/rej/err are filled
	ent   *Entry
	rej   *RejectError
	err   error // non-diagnostic compile failure (slot is dropped, not cached)
	bytes int64 // certified resident bytes charged to the memory budget
}

// Registry caches compiled tokenizers, keyed by grammar hash, with LRU
// eviction beyond a capacity. Machine-file entries loaded at startup
// are pinned: they were explicitly provisioned and survive any amount
// of ad-hoc traffic.
type Registry struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // of string (grammar hash); front = most recent
	byHash map[string]*list.Element
	slots  map[string]*slot
	pinned map[string]*Entry // by name; machine-file entries
	vocabs map[string]*Entry // by name; vocabulary entries (always pinned)

	// memBudget caps the sum of certified resident bytes (table bytes)
	// across pinned and cached entries; 0 = unlimited. residentBytes and
	// pinnedBytes track the two halves of that sum.
	memBudget     int64
	residentBytes int64
	pinnedBytes   int64

	// fusedBudget caps each tokenizer's fused action tables (0 = the
	// engine default); grammars over it serve from the split loops.
	fusedBudget int

	stats RegistryStats
}

// DefaultRegistryCapacity bounds the compiled-grammar cache when
// NewRegistry is given no explicit capacity.
const DefaultRegistryCapacity = 64

// NewRegistry returns an empty registry holding at most capacity
// compiled grammars (≤ 0 means DefaultRegistryCapacity).
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultRegistryCapacity
	}
	return &Registry{
		cap:    capacity,
		lru:    list.New(),
		byHash: make(map[string]*list.Element),
		slots:  make(map[string]*slot),
		pinned: make(map[string]*Entry),
		vocabs: make(map[string]*Entry),
	}
}

// SetMemBudget caps the sum of certified resident bytes (each entry's
// Certificate().ResidentBytes()) across pinned and cached grammars;
// 0 removes the cap. LRU eviction honors the budget, and a grammar
// whose certified footprint cannot fit even an empty cache is rejected
// with its certificate attached. Call before serving traffic.
func (r *Registry) SetMemBudget(bytes int64) {
	r.mu.Lock()
	if bytes < 0 {
		bytes = 0
	}
	r.memBudget = bytes
	r.mu.Unlock()
}

// MemBudget returns the configured budget (0 = unlimited).
func (r *Registry) MemBudget() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memBudget
}

// SetFusedBudget caps the fused action tables of every tokenizer the
// registry compiles or loads from now on (0 = the engine's 16 MB
// default). A grammar whose fused tables would exceed the cap is still
// served — from the split interpreter loops, with a smaller certified
// footprint. Call before serving traffic: already-resident entries keep
// the engine they were built with.
func (r *Registry) SetFusedBudget(bytes int) {
	r.mu.Lock()
	if bytes < 0 {
		bytes = 0
	}
	r.fusedBudget = bytes
	r.mu.Unlock()
}

// buildOptions returns the engine options registry compiles use.
func (r *Registry) buildOptions() streamtok.Options {
	r.mu.Lock()
	defer r.mu.Unlock()
	return streamtok.Options{Minimize: true, MaxFusedTableBytes: r.fusedBudget}
}

// Lookup resolves a grammar by name: a pinned machine-file entry first,
// then the built-in catalog (compiled on first use, cached by hash).
func (r *Registry) Lookup(name string) (*Entry, error) {
	r.mu.Lock()
	ent, ok := r.pinned[name]
	r.mu.Unlock()
	if ok {
		return ent, nil
	}
	g, err := streamtok.CatalogGrammar(name)
	if err != nil {
		return nil, err
	}
	return r.get(name, g)
}

// Compile resolves an ad-hoc rule-list grammar, compiled on first use
// and cached by grammar hash.
func (r *Registry) Compile(rules []string) (*Entry, error) {
	g, err := streamtok.ParseGrammar(rules...)
	if err != nil {
		return nil, err
	}
	return r.get("adhoc", g)
}

// get returns the cached entry for g, compiling it exactly once per
// hash. Concurrent requests for the same uncached grammar share one
// compilation; distinct grammars compile in parallel.
func (r *Registry) get(name string, g *streamtok.Grammar) (*Entry, error) {
	hash := g.Hash()
	r.mu.Lock()
	if el, ok := r.byHash[hash]; ok {
		r.lru.MoveToFront(el)
		sl := r.slots[hash]
		r.stats.Hits++
		r.mu.Unlock()
		<-sl.done
		if sl.rej != nil {
			return nil, sl.rej
		}
		if sl.err != nil {
			return nil, sl.err
		}
		return sl.ent, nil
	}
	sl := &slot{done: make(chan struct{})}
	r.slots[hash] = sl
	r.byHash[hash] = r.lru.PushFront(hash)
	r.stats.Misses++
	r.evictLocked()
	r.mu.Unlock()

	start := time.Now()
	tok, err := streamtok.NewWithOptions(g, r.buildOptions())
	if err != nil {
		if errors.Is(err, streamtok.ErrUnbounded) {
			sl.rej = &RejectError{Name: name, Diagnostic: unboundedDiagnostic(g)}
			r.mu.Lock()
			r.stats.Rejects++
			r.mu.Unlock()
			close(sl.done)
			return nil, sl.rej
		}
		// Non-diagnostic failure (e.g. TeDFA budget): drop the slot so a
		// later attempt can retry, and fail this request.
		sl.err = err
		r.mu.Lock()
		if el, ok := r.byHash[hash]; ok && r.slots[hash] == sl {
			r.lru.Remove(el)
			delete(r.byHash, hash)
			delete(r.slots, hash)
		}
		r.mu.Unlock()
		close(sl.done)
		return nil, err
	}
	ent := newEntry(name, hash, g, tok, time.Since(start))

	// Budget admission: the compiled grammar's certified resident bytes
	// must fit the memory budget (less the pinned share), evicting
	// unpinned LRU entries to make room. A grammar too large for even
	// an empty cache is cached as a rejection — retrying it must not
	// re-pay the compile.
	rb := int64(tok.Certificate().ResidentBytes())
	r.mu.Lock()
	if r.memBudget > 0 && r.slots[hash] == sl {
		avail := r.memBudget - r.pinnedBytes
		if rb > avail {
			sl.rej = &RejectError{
				Name:       name,
				Diagnostic: budgetDiagnostic(tok.Certificate(), rb, avail, r.memBudget, r.pinnedBytes),
				Cert:       tok.Certificate(),
			}
			r.stats.Rejects++
			r.stats.BudgetRejects++
			r.mu.Unlock()
			close(sl.done)
			return nil, sl.rej
		}
		r.evictForBudgetLocked(rb, sl)
		sl.bytes = rb
		r.residentBytes += rb
	}
	r.mu.Unlock()

	sl.ent = ent
	close(sl.done)
	return sl.ent, nil
}

// budgetDiagnostic renders the lint-style rejection for a grammar whose
// certified footprint cannot fit the memory budget, certificate
// attached so the client sees why the grammar is expensive.
func budgetDiagnostic(c *streamtok.Certificate, rb, avail, budget, pinned int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "error[mem-budget]: certified resident tables %d B exceed the registry memory budget (%d B available of %d B; %d B pinned)",
		rb, avail, budget, pinned)
	fmt.Fprintf(&sb, "\n    certificate: %s", c)
	sb.WriteString("\n    raise -mem-budget, shrink the grammar, or serve it from a dedicated instance")
	return sb.String()
}

// evictForBudgetLocked drops completed, unpinned LRU entries (never
// keep, never a slot still compiling) until need more certified bytes
// fit the budget's cache share.
func (r *Registry) evictForBudgetLocked(need int64, keep *slot) {
	avail := r.memBudget - r.pinnedBytes
	el := r.lru.Back()
	for el != nil && r.residentBytes+need > avail {
		prev := el.Prev()
		hash := el.Value.(string)
		if sl := r.slots[hash]; sl != keep && sl != nil && sl.bytes > 0 {
			r.lru.Remove(el)
			delete(r.byHash, hash)
			delete(r.slots, hash)
			r.residentBytes -= sl.bytes
			r.stats.Evictions++
		}
		el = prev
	}
}

// evictLocked drops least-recently-used slots beyond capacity. Evicted
// tokenizers are simply released to the garbage collector; in-flight
// requests holding the *Entry keep it alive until they finish.
func (r *Registry) evictLocked() {
	for r.lru.Len() > r.cap {
		el := r.lru.Back()
		if el == nil {
			return
		}
		hash := el.Value.(string)
		r.lru.Remove(el)
		if sl := r.slots[hash]; sl != nil {
			r.residentBytes -= sl.bytes
		}
		delete(r.byHash, hash)
		delete(r.slots, hash)
		r.stats.Evictions++
	}
}

// LoadMachine decodes a compiled machine file (tnd -emit / SaveCompiled)
// and pins it under the file's stem name. An unbounded stored machine is
// rejected with the same lint-style diagnostic ad-hoc grammars get.
func (r *Registry) LoadMachine(path string) (*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	opts := r.buildOptions()
	opts.Minimize = false // tables are already compiled (and minimized)
	start := time.Now()
	tok, g, err := streamtok.LoadCompiledWithOptions(f, opts)
	if err != nil {
		if errors.Is(err, streamtok.ErrUnbounded) && g != nil {
			rej := &RejectError{Name: name, Diagnostic: unboundedDiagnostic(g)}
			r.mu.Lock()
			r.stats.Rejects++
			r.mu.Unlock()
			return nil, rej
		}
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	ent := newEntry(name, g.Hash(), g, tok, time.Since(start))
	rb := int64(tok.Certificate().ResidentBytes())
	r.mu.Lock()
	if old, ok := r.pinned[name]; ok {
		r.pinnedBytes -= int64(old.Tok.Certificate().ResidentBytes())
	}
	if r.memBudget > 0 && r.pinnedBytes+rb > r.memBudget {
		over := r.pinnedBytes + rb - r.memBudget
		r.mu.Unlock()
		return nil, fmt.Errorf("pin %s: certified resident tables %d B overflow the %d B memory budget by %d B (certificate: %s)",
			name, rb, r.memBudget, over, tok.Certificate())
	}
	r.pinnedBytes += rb
	r.pinned[name] = ent
	// Pinned bytes shrink the cache's share of the budget; evict cached
	// entries that no longer fit.
	if r.memBudget > 0 {
		r.evictForBudgetLocked(0, nil)
	}
	r.mu.Unlock()
	return ent, nil
}

// LoadMachineDir loads every regular file in dir as a machine file and
// returns the pinned names. Any failing file aborts the load — a serving
// fleet must not come up with a silently partial grammar set.
func (r *Registry) LoadMachineDir(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		ent, err := r.LoadMachine(filepath.Join(dir, f.Name()))
		if err != nil {
			return names, err
		}
		names = append(names, ent.Name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadVocab reads a BPE vocabulary file (tiktoken rank file or minimal
// Hugging Face tokenizer.json, sniffed), compiles it through the same
// certified pipeline as grammars, and pins it under the file's stem
// name for ?vocab= requests. The certified resident footprint — vocab
// DFA plus pretokenizer tables — charges the memory budget exactly like
// a pinned machine grammar.
func (r *Registry) LoadVocab(path string) (*Entry, error) {
	start := time.Now()
	v, err := streamtok.LoadVocab(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	tok, err := streamtok.Compile(v, r.buildOptions())
	if err != nil {
		return nil, fmt.Errorf("compile vocab %s: %w", name, err)
	}
	ent := &Entry{Name: name, Hash: v.Hash(), Vocab: v, Tok: tok, CompileTime: time.Since(start)}
	rb := int64(tok.Certificate().ResidentBytes())
	r.mu.Lock()
	if old, ok := r.vocabs[name]; ok {
		r.pinnedBytes -= int64(old.Tok.Certificate().ResidentBytes())
	}
	if r.memBudget > 0 && r.pinnedBytes+rb > r.memBudget {
		over := r.pinnedBytes + rb - r.memBudget
		r.mu.Unlock()
		return nil, fmt.Errorf("pin vocab %s: certified resident tables %d B overflow the %d B memory budget by %d B (certificate: %s)",
			name, rb, r.memBudget, over, tok.Certificate())
	}
	r.pinnedBytes += rb
	r.vocabs[name] = ent
	if r.memBudget > 0 {
		r.evictForBudgetLocked(0, nil)
	}
	r.mu.Unlock()
	return ent, nil
}

// LoadVocabDir loads every regular file in dir as a vocabulary file and
// returns the pinned names. Any failing file aborts the load, like
// LoadMachineDir.
func (r *Registry) LoadVocabDir(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		ent, err := r.LoadVocab(filepath.Join(dir, f.Name()))
		if err != nil {
			return names, err
		}
		names = append(names, ent.Name)
	}
	sort.Strings(names)
	return names, nil
}

// LookupVocab resolves a pinned vocabulary by name. An unknown name
// returns a *NotFoundError carrying the loaded catalog, which the
// server renders as a 404 with the available names.
func (r *Registry) LookupVocab(name string) (*Entry, error) {
	r.mu.Lock()
	ent, ok := r.vocabs[name]
	r.mu.Unlock()
	if !ok {
		return nil, &NotFoundError{Kind: "vocab", Name: name, Catalog: r.VocabNames()}
	}
	return ent, nil
}

// VocabNames returns the pinned vocabulary names, sorted.
func (r *Registry) VocabNames() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.vocabs))
	for name := range r.vocabs {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Entries snapshots every resident compiled entry (pinned grammars,
// pinned vocabularies, and cached, rejections excluded), sorted by name
// then hash, for /metrics and /statusz.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	out := make([]*Entry, 0, len(r.pinned)+len(r.vocabs)+len(r.slots))
	for _, ent := range r.pinned {
		out = append(out, ent)
	}
	for _, ent := range r.vocabs {
		out = append(out, ent)
	}
	for _, sl := range r.slots {
		select {
		case <-sl.done:
			if sl.ent != nil {
				out = append(out, sl.ent)
			}
		default: // still compiling; skip
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// Stats snapshots the registry counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	st := r.stats
	st.Resident = len(r.byHash)
	st.Pinned = len(r.pinned)
	st.Vocabs = len(r.vocabs)
	st.ResidentBytes = r.residentBytes
	st.PinnedBytes = r.pinnedBytes
	st.MemBudget = r.memBudget
	r.mu.Unlock()
	return st
}

func newEntry(name, hash string, g *streamtok.Grammar, tok *streamtok.Tokenizer, compile time.Duration) *Entry {
	quoted := make([][]byte, g.NumRules())
	for i := range quoted {
		quoted[i] = appendJSONString(nil, g.RuleName(i))
	}
	return &Entry{Name: name, Hash: hash, Grammar: g, Tok: tok, CompileTime: compile, quotedNames: quoted}
}

// unboundedDiagnostic renders the lint-style rejection for a grammar
// whose max-TND is infinite, in grammarlint's severity[code] format with
// the pump witness when the lint pass can produce one. Culprit
// delta-debugging is skipped: rejections are client-triggerable, so the
// diagnostic must cost one compile, not a subset search.
func unboundedDiagnostic(g *streamtok.Grammar) string {
	fallback := "error[unbounded-tnd]: grammar has unbounded max token neighbor distance; " +
		"bounded-memory streaming is impossible (run `tnd -lint` for the pump certificate and culprit rules)"
	tg, err := tokdfa.ParseGrammar(g.Rules()...)
	if err != nil {
		return fallback
	}
	names := make([]string, g.NumRules())
	for i := range names {
		names[i] = g.RuleName(i)
	}
	tg.Named(names...)
	rep, err := grammarlint.Run(tg, grammarlint.Options{NoCulprits: true})
	if err != nil {
		return fallback
	}
	for _, d := range rep.Diags {
		if d.Code != grammarlint.CodeUnboundedTND {
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s[%s]: %s", d.Severity, d.Code, d.Message)
		for _, line := range d.Detail {
			fmt.Fprintf(&sb, "\n    %s", line)
		}
		sb.WriteString("\n    the serving registry only admits grammars with finite max-TND (run `tnd -lint` for culprit rules)")
		return sb.String()
	}
	return fallback
}
