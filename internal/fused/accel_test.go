package fused_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/bpe"
	"streamtok/internal/fused"
	"streamtok/internal/grammars"
	"streamtok/internal/tokdfa"
)

// scanOracle is ScanRun by Definition: the first index ≥ start whose
// byte is not in the class.
func scanOracle(inf *fused.AccelInfo, chunk []byte, start int) int {
	i := start
	for i < len(chunk) && inf.Contains(chunk[i]) {
		i++
	}
	return i
}

// rangeClass is the class of the given byte ranges, plus 0x80–0xff when
// high is set.
func rangeClass(ranges [][2]int, high bool) [4]uint64 {
	var c [4]uint64
	for _, r := range ranges {
		for b := r[0]; b <= r[1]; b++ {
			c[b>>6] |= 1 << (b & 63)
		}
	}
	if high {
		c[2], c[3] = ^uint64(0), ^uint64(0)
	}
	return c
}

func complement(c [4]uint64) [4]uint64 {
	return [4]uint64{^c[0], ^c[1], ^c[2], ^c[3]}
}

// members lists the bytes in (or, with in false, out of) the class.
func members(inf *fused.AccelInfo, in bool) []byte {
	var out []byte
	for b := 0; b < 256; b++ {
		if inf.Contains(byte(b)) == in {
			out = append(out, byte(b))
		}
	}
	return out
}

// checkRuns scans runs of 0–80 class bytes behind 0–8 bytes of junk,
// each ended by an exit byte, by the chunk's end, or by an exit byte and
// trailing bytes, so runs cross the 8-byte word, the SWAR prefix and the
// chunk end at every alignment.
func checkRuns(t *testing.T, rng *rand.Rand, inf *fused.AccelInfo) {
	t.Helper()
	in, out := members(inf, true), members(inf, false)
	if len(in) == 0 {
		return
	}
	var chunk []byte
	for run := 0; run <= 80; run++ {
		for start := 0; start <= 8; start++ {
			for end := 0; end < 3; end++ {
				if end > 0 && len(out) == 0 {
					continue
				}
				chunk = chunk[:0]
				for i := 0; i < start; i++ {
					chunk = append(chunk, byte(rng.Intn(256)))
				}
				for i := 0; i < run; i++ {
					chunk = append(chunk, in[rng.Intn(len(in))])
				}
				if end > 0 {
					chunk = append(chunk, out[rng.Intn(len(out))])
				}
				if end > 1 {
					for i := rng.Intn(20); i > 0; i-- {
						chunk = append(chunk, byte(rng.Intn(256)))
					}
				}
				if got, want := inf.ScanRun(chunk, start), scanOracle(inf, chunk, start); got != want {
					t.Fatalf("%s class %s: ScanRun(%q, %d) = %d, want %d",
						inf.Kind(), classString(inf), chunk, start, got, want)
				}
			}
		}
	}
}

// TestScanRunMatchesBitmap checks every scan kind against the class's
// bitmap byte by byte: random classes of ≤ 4 ASCII ranges and their
// complements, with 0x80–0xff all in or all out (the SWAR kind), and
// classes that must not take it (a fifth range, a split high half, few
// exits among the high bytes).
func TestScanRunMatchesBitmap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randRanges := func(n int) [][2]int {
		var rs [][2]int
		for i := 0; i < n; i++ {
			lo := rng.Intn(128)
			rs = append(rs, [2]int{lo, lo + rng.Intn(min(128-lo, 1+rng.Intn(40)))})
		}
		return rs
	}
	kinds := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		c := rangeClass(randRanges(1+rng.Intn(4)), rng.Intn(2) == 0)
		for _, class := range [][4]uint64{c, complement(c)} {
			inf := fused.NewAccelInfo(class)
			if inf.Kind() != "swar" {
				t.Fatalf("class %s takes %s, want swar", classString(&inf), inf.Kind())
			}
			kinds[inf.Kind()]++
			checkRuns(t, rng, &inf)
		}
	}
	fallback := []struct {
		class [4]uint64
		kind  string
	}{
		// Five ASCII ranges, either way round.
		{rangeClass([][2]int{{1, 1}, {3, 3}, {5, 5}, {7, 7}, {9, 9}}, false), "bitmap"},
		{complement(rangeClass([][2]int{{1, 1}, {3, 3}, {5, 5}, {7, 7}, {9, 9}}, false)), "bitmap"},
		// The high half split: UTF-8 continuation bytes, ASCII plus lead bytes.
		{[4]uint64{0, 0, ^uint64(0), 0}, "bitmap"},
		// One high byte (the self-loop of \xff+): 255 exits, the high half split.
		{[4]uint64{0, 0, 0, 1 << 63}, "bitmap"},
		{rangeClass([][2]int{{0x30, 0x39}}, false), "swar"},
		{rangeClass([][2]int{{0x41, 0x5a}, {0x61, 0x7a}}, false), "swar"},
		// Few exits, one of them a high byte.
		{complement([4]uint64{1 << '"', 0, 0, 1 << 63}), "exits"},
		{complement([4]uint64{0, 0, 0, 1 << 63}), "exits"},
		// Every byte, and every ASCII byte.
		{[4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, "swar"},
		{[4]uint64{^uint64(0), ^uint64(0), 0, 0}, "swar"},
		{[4]uint64{0, 0, ^uint64(0), ^uint64(0)}, "swar"},
	}
	for _, fb := range fallback {
		inf := fused.NewAccelInfo(fb.class)
		if inf.Kind() != fb.kind {
			t.Errorf("class %s takes %s, want %s", classString(&inf), inf.Kind(), fb.kind)
		}
		kinds[inf.Kind()]++
		checkRuns(t, rng, &inf)
	}
	for trial := 0; trial < 100; trial++ {
		var c [4]uint64
		for w := range c {
			c[w] = rng.Uint64() & rng.Uint64()
		}
		inf := fused.NewAccelInfo(c)
		kinds[inf.Kind()]++
		checkRuns(t, rng, &inf)
	}
	if kinds["bitmap"] == 0 || kinds["exits"] == 0 || kinds["swar"] == 0 {
		t.Errorf("kinds covered: %v", kinds)
	}
}

// FuzzScanRun checks ScanRun against the bitmap on fuzzed classes and
// chunks. spec[0] picks the class's form: bit 0 sets 0x80–0xff, bit 1
// complements the class, bit 2 reads spec[1:] as the raw bitmap rather
// than as (lo, hi) range pairs. A chunk byte below 0xe0 stands for a
// class member (so runs are long), any other byte for an exit byte.
func FuzzScanRun(f *testing.F) {
	f.Add([]byte{0, '0', '9'}, []byte("12345678901234567890123456789012345678x"), uint8(1))
	f.Add([]byte{1, 0, '!', '#', '[', ']', 0x7f}, bytes.Repeat([]byte{7}, 70), uint8(3))
	f.Add([]byte{2, '\n', '\n', '"', '"', ',', ',', '\r', '\r'}, []byte("abc,def\"\n"), uint8(0))
	f.Add([]byte{0, 'A', 'Z', 'a', 'z', '_', '_', '0', '9', '-', '-'}, []byte("ident_1 x"), uint8(0))
	f.Add([]byte{4, 0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff}, []byte("\x80\x81\xbf\xc3"), uint8(0))
	f.Fuzz(func(t *testing.T, spec, data []byte, start uint8) {
		if len(spec) == 0 {
			return
		}
		var class [4]uint64
		if spec[0]&4 != 0 {
			for i, b := range spec[1:min(len(spec), 33)] {
				class[i/8] |= uint64(b) << (8 * (i % 8))
			}
		} else {
			var rs [][2]int
			for i := 1; i+1 < len(spec); i += 2 {
				lo, hi := int(spec[i]&0x7f), int(spec[i+1]&0x7f)
				rs = append(rs, [2]int{min(lo, hi), max(lo, hi)})
			}
			class = rangeClass(rs, spec[0]&1 != 0)
		}
		if spec[0]&2 != 0 {
			class = complement(class)
		}
		inf := fused.NewAccelInfo(class)
		in, out := members(&inf, true), members(&inf, false)
		if len(in) == 0 {
			return
		}
		chunk := make([]byte, len(data))
		for i, b := range data {
			if b < 0xe0 || len(out) == 0 {
				chunk[i] = in[int(b)%len(in)]
			} else {
				chunk[i] = out[int(b)%len(out)]
			}
		}
		s := min(int(start), len(chunk))
		if got, want := inf.ScanRun(chunk, s), scanOracle(&inf, chunk, s); got != want {
			t.Fatalf("%s class %s: ScanRun(%q, %d) = %d, want %d", inf.Kind(), classString(&inf), chunk, s, got, want)
		}
	})
}

// classString prints a class as its byte ranges ("09-0a 0d 20").
func classString(inf *fused.AccelInfo) string {
	var rs []string
	for b := 0; b < 256; b++ {
		if !inf.Contains(byte(b)) || b > 0 && inf.Contains(byte(b-1)) {
			continue
		}
		e := b
		for e < 255 && inf.Contains(byte(e+1)) {
			e++
		}
		if e == b {
			rs = append(rs, fmt.Sprintf("%02x", b))
		} else {
			rs = append(rs, fmt.Sprintf("%02x-%02x", b, e))
		}
	}
	return strings.Join(rs, " ")
}

// TestAccelKinds pins the scan each accel class of the catalog grammars
// and the pretokenizer takes, in the engine's intern order: a class that
// silently drops back to the bitmap fails here.
func TestAccelKinds(t *testing.T) {
	want := map[string][]string{
		"json": {"09-0a 0d 20 swar", "00-21 23-5b 5d-ff swar", "30-39 swar"},
		"csv":  {"00-09 0b-0c 0e-21 23-2b 2d-ff swar", "00-21 23-ff swar"},
		"yaml": {"20 swar", "00-09 0b-21 23-ff swar", "00-09 0b-ff swar", "00-09 0b-26 28-ff swar",
			"30-39 swar", "30-39 41-5a 5f 61-7a swar"},
		// The word class has 6 ranges.
		"log": {"09 20 swar", "00-09 0b-21 23-ff swar", "23 2b 2d-3a 40-5a 5f 61-7a bitmap"},
		"tsv": {"30-39 swar", "2d-3a 41-5a 5f 61-7a swar"},
		"sql-inserts": {"09-0a 0d 20 swar", "00-09 0b-26 28-ff swar", "30-39 swar",
			"30-39 41-5a 5f 61-7a swar", "00-09 0b-ff swar"},
		// Punctuation has 8 ranges; the UTF-8 continuation bytes split
		// the high half.
		"pretok": {"00-08 0b-0c 0e-1f 21-26 28-2f 3a-40 5b-60 7b-7f bitmap", "09-0a 0d 20 swar",
			"30-39 swar", "41-5a 61-7a swar", "80-bf bitmap"},
	}
	for name, classes := range want {
		var m *tokdfa.Machine
		if name == "pretok" {
			m = tokdfa.MustCompile(bpe.PretokGrammar(), tokdfa.Options{Minimize: true})
		} else {
			spec, err := grammars.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			m = spec.Machine()
		}
		e := fused.Build(m, analysis.Analyze(m).MaxTND, fused.Options{})
		if e == nil {
			t.Fatalf("%s: no fused engine", name)
		}
		var got []string
		for i := range e.Infos {
			got = append(got, classString(&e.Infos[i])+" "+e.Infos[i].Kind())
		}
		if strings.Join(got, "\n") != strings.Join(classes, "\n") {
			t.Errorf("%s accel classes:\n%s\nwant\n%s", name, strings.Join(got, "\n"), strings.Join(classes, "\n"))
		}
	}
}

// BenchmarkScanRun times ScanRun by kind and run length over a 64 KiB
// chunk of runs, each ended by one exit byte; MB/s counts the runs'
// bytes and their exits. The classes: csv's field class (SWAR, then the
// memchr chain past the prefix), the pretokenizer's letters (SWAR
// alone), a class whose exits include a high byte (the memchr chain)
// and log's word class (the bitmap).
func BenchmarkScanRun(b *testing.B) {
	classes := []struct {
		name  string
		class [4]uint64
		exit  byte
	}{
		{"swar-exits", complement(rangeClass([][2]int{{'\n', '\n'}, {'\r', '\r'}, {'"', '"'}, {',', ','}}, false)), ','},
		{"swar", rangeClass([][2]int{{'A', 'Z'}, {'a', 'z'}}, false), ' '},
		{"exits", complement([4]uint64{1 << '"', 0, 0, 1 << 63}), '"'},
		{"bitmap", rangeClass([][2]int{{'#', '#'}, {'+', '+'}, {'-', ':'}, {'@', 'Z'}, {'_', '_'}, {'a', 'z'}}, false), ' '},
	}
	for _, c := range classes {
		inf := fused.NewAccelInfo(c.class)
		if !inf.Contains('a') || inf.Contains(c.exit) || inf.Kind() != strings.TrimSuffix(c.name, "-exits") {
			b.Fatalf("%s: bad class (%s)", c.name, inf.Kind())
		}
		// Run 0 stands for mixed lengths of 1–8 bytes, as on real
		// documents: fixed lengths let a byte loop predict its exit.
		for _, run := range []int{1, 4, 16, 64, 4096, 0} {
			chunk := bytes.Repeat(append(bytes.Repeat([]byte{'a'}, run), c.exit), max(1, 64<<10/(run+1)))
			name := fmt.Sprintf("%s/%d", c.name, run)
			if run == 0 {
				rng := rand.New(rand.NewSource(1))
				chunk = nil
				for len(chunk) < 64<<10 {
					chunk = append(append(chunk, bytes.Repeat([]byte{'a'}, 1+rng.Intn(8))...), c.exit)
				}
				name = c.name + "/mixed1-8"
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(chunk)))
				for b.Loop() {
					for i := 0; i < len(chunk); i++ {
						i = inf.ScanRun(chunk, i)
					}
				}
			})
		}
	}
}
