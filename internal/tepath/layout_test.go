package tepath_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
)

// tableLayout is the observable shape of an eager TeDFA: state count,
// start state, and a digest over the class-compressed transitions and
// the fused emit-OK bitsets (extendable is their complement on final
// states, so the digest covers it too).
type tableLayout struct {
	states, start int
	digest        string
}

// wantLayouts pins the eager TeDFA of every bounded k ≥ 1 catalog and
// corpus grammar. The values are the tables the powerset construction
// produced before the lazy and eager builds were unified; the unified
// construction must reproduce them exactly (state numbering included),
// or the fused engines and generated lexers built from them would
// silently change shape.
var wantLayouts = map[string]tableLayout{
	"catalog/json":            {65, 0, "3045f51429403adb"},
	"catalog/csv":             {4, 0, "e25a41e317ce7755"},
	"catalog/tsv":             {13, 0, "f4d5df0caa0ee116"},
	"catalog/xml":             {419, 0, "975eb480ddaa610b"},
	"catalog/yaml":            {31, 0, "3fb32879062dcc8f"},
	"catalog/fasta":           {3, 0, "ed8f37d26d002e0a"},
	"catalog/dns":             {4, 0, "e1d3eef2e92e8485"},
	"catalog/log":             {4, 0, "99dec1420c2997be"},
	"catalog/sql-inserts":     {383, 0, "8ed6a6bec1c0c65a"},
	"corpus/ints-spaces":      {3, 0, "c3de10c0344a92d2"},
	"corpus/floats":           {7, 0, "be7b6305e3fea25f"},
	"corpus/scientific":       {47, 0, "acb9d9e1d1bbe7d3"},
	"corpus/rk4":              {30, 0, "f59ac5856497bc46"},
	"corpus/keywords":         {3, 0, "f759d4a9b7ae6de7"},
	"corpus/csv-stream":       {4, 0, "4eddb7cbc6781825"},
	"corpus/comments":         {3, 0, "944758547208818e"},
	"corpus/identifiers":      {5, 0, "a2d9e049d30aa91c"},
	"corpus/nullable-rule":    {2, 0, "643e85cf2648e5bf"},
	"corpus/overlap-priority": {2, 0, "478af3ff2c8c9653"},
	"corpus/byte-extremes":    {4, 0, "6452df89e0506b08"},
	"corpus/full-dot":         {2, 0, "caa5dc5e6c9aabfe"},
	"corpus/nested-bounds":    {13, 0, "01710ae7528b6451"},
	"corpus/rk12-lazy":        {8190, 0, "c4f18a6cff522efb"},
	"corpus/keyword-ladder":   {3, 0, "945f62ce6da9c586"},
	"corpus/crlf-lines":       {2, 0, "c6c687772831d8a2"},
	"corpus/pretok":           {78, 0, "747d43803913bf7c"},
}

func layoutOf(t *testing.T, m *tokdfa.Machine, k int) tableLayout {
	t.Helper()
	tab, err := tepath.Build(m, k, tepath.Limits{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	trans, _, emitOK, _ := tab.Dump()
	h := sha256.New()
	var buf [8]byte
	for _, v := range trans {
		binary.LittleEndian.PutUint32(buf[:4], uint32(v))
		h.Write(buf[:4])
	}
	for _, row := range emitOK {
		for _, w := range row {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return tableLayout{tab.NumStates(), tab.Start, hex.EncodeToString(h.Sum(nil)[:8])}
}

// TestEagerLayoutPinned checks Build against the pinned layouts.
func TestEagerLayoutPinned(t *testing.T) {
	type named struct {
		name string
		m    *tokdfa.Machine
	}
	var cases []named
	for _, s := range grammars.All() {
		cases = append(cases, named{"catalog/" + s.Name, s.Machine()})
	}
	for _, c := range testutil.Corpus() {
		cases = append(cases, named{"corpus/" + c.Name, c.Compile(false)})
	}
	seen := 0
	for _, c := range cases {
		res := analysis.Analyze(c.m)
		if !res.Bounded() || res.MaxTND < 1 {
			continue
		}
		seen++
		got := layoutOf(t, c.m, res.MaxTND)
		want, ok := wantLayouts[c.name]
		if !ok || got != want {
			t.Errorf("%s (k=%d): layout %#v, want %#v", c.name, res.MaxTND, got, want)
		}
	}
	if seen != len(wantLayouts) {
		t.Errorf("checked %d grammars, %d pinned", seen, len(wantLayouts))
	}
}
