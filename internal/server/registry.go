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
	"strconv"
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

	// ruleTails caches each rule's NDJSON `,"rule":N,"name":"…"` tail,
	// so the hot path never formats the rule or escapes its name; tailMax
	// is the longest. Nil for vocabulary entries: Token.Rule is the rank,
	// which has no name.
	ruleTails [][]byte
	tailMax   int
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
// certified footprint cannot fit it. Recertified counts pinned machine
// files whose stored engine half differed from the engine this build
// constructed; they serve (and are charged) on the derived certificate.
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
	Recertified   uint64 `json:"recertified"`
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
	err   error      // non-diagnostic compile failure (slot is dropped, not cached)
	bytes int64      // certified resident bytes charged to the memory budget
	keys  []aliasKey // Registry.aliases keys that resolve to this slot
}

// wait blocks until the slot is filled and returns its outcome.
func (sl *slot) wait() (*Entry, error) {
	<-sl.done
	if sl.rej != nil {
		return nil, sl.rej
	}
	if sl.err != nil {
		return nil, sl.err
	}
	return sl.ent, nil
}

// maxSlotAliases bounds the request keys one slot collects. Distinct
// rule lists rarely share a hash, but a client crafting collisions must
// not grow the alias map past the registry's capacity.
const maxSlotAliases = 4

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
	// aliases maps a request key — a catalog name, or a raw ?rule= list
	// — to the hash it resolved to, so a repeat request takes the cache
	// hit without building or parsing the grammar. Keys live exactly as
	// long as their slot; unknown names are never entered.
	aliases map[aliasKey]string
	pinned  map[string]*Entry // by name; machine-file entries
	vocabs  map[string]*Entry // by name; vocabulary entries (always pinned)

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
		cap:     capacity,
		lru:     list.New(),
		byHash:  make(map[string]*list.Element),
		slots:   make(map[string]*slot),
		aliases: make(map[aliasKey]string),
		pinned:  make(map[string]*Entry),
		vocabs:  make(map[string]*Entry),
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
// then the built-in catalog (compiled on first use, cached by hash). A
// name resolved before goes straight to its cached entry.
func (r *Registry) Lookup(name string) (*Entry, error) {
	r.mu.Lock()
	ent, ok := r.pinned[name]
	if ok {
		r.mu.Unlock()
		return ent, nil
	}
	key := aliasKey{name: name}
	if sl := r.hitLocked(key); sl != nil {
		r.mu.Unlock()
		return sl.wait()
	}
	r.mu.Unlock()
	g, err := streamtok.CatalogGrammar(name)
	if err != nil {
		return nil, err
	}
	return r.get(name, key, g)
}

// Compile resolves an ad-hoc rule-list grammar, compiled on first use
// and cached by grammar hash. A rule list resolved before goes straight
// to its cached entry.
func (r *Registry) Compile(rules []string) (*Entry, error) {
	key := aliasKey{rules: true, name: ruleKey(rules)}
	r.mu.Lock()
	if sl := r.hitLocked(key); sl != nil {
		r.mu.Unlock()
		return sl.wait()
	}
	r.mu.Unlock()
	g, err := streamtok.ParseGrammar(rules...)
	if err != nil {
		return nil, err
	}
	return r.get("adhoc", key, g)
}

// aliasKey is a request's name for a grammar: a catalog name, or a raw
// rule list (ruleKey).
type aliasKey struct {
	rules bool
	name  string
}

// ruleKey renders a rule list with each rule length-prefixed, so no two
// lists share a key.
func ruleKey(rules []string) string {
	n := 0
	for _, rule := range rules {
		n += len(rule) + 8
	}
	b := make([]byte, 0, n)
	for _, rule := range rules {
		b = strconv.AppendInt(b, int64(len(rule)), 10)
		b = append(b, ':')
		b = append(b, rule...)
	}
	return string(b)
}

// hitLocked returns the resident slot key resolved to before, counted as
// a cache hit, or nil.
func (r *Registry) hitLocked(key aliasKey) *slot {
	hash, ok := r.aliases[key]
	if !ok {
		return nil
	}
	el, ok := r.byHash[hash]
	if !ok {
		return nil
	}
	r.lru.MoveToFront(el)
	r.stats.Hits++
	return r.slots[hash]
}

// aliasLocked records that key resolves to sl's hash.
func (r *Registry) aliasLocked(key aliasKey, hash string, sl *slot) {
	if _, ok := r.aliases[key]; ok || len(sl.keys) >= maxSlotAliases {
		return
	}
	r.aliases[key] = hash
	sl.keys = append(sl.keys, key)
}

// dropLocked removes the slot at el from the cache, with its aliases.
func (r *Registry) dropLocked(el *list.Element) {
	hash := el.Value.(string)
	r.lru.Remove(el)
	if sl := r.slots[hash]; sl != nil {
		r.residentBytes -= sl.bytes
		for _, key := range sl.keys {
			delete(r.aliases, key)
		}
	}
	delete(r.byHash, hash)
	delete(r.slots, hash)
}

// get returns the cached entry for g, compiling it exactly once per
// hash, and records key as an alias of it. Concurrent requests for the
// same uncached grammar share one compilation; distinct grammars compile
// in parallel.
func (r *Registry) get(name string, key aliasKey, g *streamtok.Grammar) (*Entry, error) {
	hash := g.Hash()
	r.mu.Lock()
	if el, ok := r.byHash[hash]; ok {
		r.lru.MoveToFront(el)
		sl := r.slots[hash]
		r.aliasLocked(key, hash, sl)
		r.stats.Hits++
		r.mu.Unlock()
		return sl.wait()
	}
	sl := &slot{done: make(chan struct{})}
	r.slots[hash] = sl
	r.byHash[hash] = r.lru.PushFront(hash)
	r.aliasLocked(key, hash, sl)
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
			r.dropLocked(el)
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
		if sl := r.slots[el.Value.(string)]; sl != keep && sl != nil && sl.bytes > 0 {
			r.dropLocked(el)
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
		r.dropLocked(el)
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
	start := time.Now()
	tok, g, err := streamtok.LoadCompiledWithOptions(f, r.buildOptions())
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
	return r.pin(r.pinned, newEntry(name, g.Hash(), g, tok, time.Since(start)))
}

// pin enters ent under its name in table (pinned machines or vocabs),
// replacing any entry of that name. Pinned entries charge the memory
// budget first: a pin that overflows it — counting the replaced entry's
// bytes as freed — is refused before any state changes, so a failed
// re-pin leaves the old entry served and charged. Pinned bytes shrink
// the cache's share of the budget, so cached entries that no longer fit
// are evicted.
func (r *Registry) pin(table map[string]*Entry, ent *Entry) (*Entry, error) {
	rb := int64(ent.Tok.Certificate().ResidentBytes())
	r.mu.Lock()
	defer r.mu.Unlock()
	var oldBytes int64
	if old, ok := table[ent.Name]; ok {
		oldBytes = int64(old.Tok.Certificate().ResidentBytes())
	}
	if need := r.pinnedBytes - oldBytes + rb; r.memBudget > 0 && need > r.memBudget {
		kind := ""
		if ent.Vocab != nil {
			kind = "vocab "
		}
		return nil, fmt.Errorf("pin %s%s: certified resident tables %d B overflow the %d B memory budget by %d B (certificate: %s)",
			kind, ent.Name, rb, r.memBudget, need-r.memBudget, ent.Tok.Certificate())
	}
	r.pinnedBytes += rb - oldBytes
	table[ent.Name] = ent
	if ent.Tok.Certificate().Recertified {
		r.stats.Recertified++
	}
	if r.memBudget > 0 {
		r.evictForBudgetLocked(0, nil)
	}
	return ent, nil
}

// LoadMachineDir loads every regular file in dir as a machine file and
// returns the pinned names. Any failing file aborts the load — a serving
// fleet must not come up with a silently partial grammar set.
func (r *Registry) LoadMachineDir(dir string) ([]string, error) { return loadDir(dir, r.LoadMachine) }

// loadDir runs load on every regular file in dir and returns the
// pinned names, sorted; the first failing file aborts the walk.
func loadDir(dir string, load func(path string) (*Entry, error)) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		ent, err := load(filepath.Join(dir, f.Name()))
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
	return r.pin(r.vocabs, &Entry{Name: name, Hash: v.Hash(), Vocab: v, Tok: tok, CompileTime: time.Since(start)})
}

// LoadVocabDir loads every regular file in dir as a vocabulary file and
// returns the pinned names. Any failing file aborts the load, like
// LoadMachineDir.
func (r *Registry) LoadVocabDir(dir string) ([]string, error) { return loadDir(dir, r.LoadVocab) }

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
	ent := &Entry{Name: name, Hash: hash, Grammar: g, Tok: tok, CompileTime: compile,
		ruleTails: make([][]byte, g.NumRules())}
	for i := range ent.ruleTails {
		ent.ruleTails[i] = ruleTail(i, g.RuleName(i))
		ent.tailMax = max(ent.tailMax, len(ent.ruleTails[i]))
	}
	return ent
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
