package bpe

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamtok/internal/workload"
)

// The local-validity predicates pinned to the merge loop. Compatible
// and SelfEncodes must equal what encodePieceSlow says of the pair's
// concatenation and of the token's bytes, on every vocabulary: by the
// merge-tree walk where the vocabulary is not inverted, by the merge
// loop where it is.

// slowSelfEncodes is the merge-loop definition of SelfEncodes.
func slowSelfEncodes(v *Vocab, r int) bool {
	enc := v.encodePieceSlow(v.tokens[r])
	return len(enc) == 1 && enc[0] == r
}

// slowCompatible is the merge-loop definition of Compatible.
func slowCompatible(v *Vocab, a, b int) bool {
	cat := append(append([]byte(nil), v.tokens[a]...), v.tokens[b]...)
	enc := v.encodePieceSlow(cat)
	return len(enc) == 2 && enc[0] == a && enc[1] == b
}

// walkSelfEncodes and walkCompatible are what the merge-tree walk alone
// answers, without the inverted vocabulary's merge-loop answers: the
// predicates the inversion flag guards.
func walkSelfEncodes(v *Vocab, r int) bool {
	return v.tokLen[r] == 1 || v.split[r].left != int32(r)
}

func walkCompatible(v *Vocab, a, b int) bool {
	return walkSelfEncodes(v, a) && walkSelfEncodes(v, b) && v.splitValid(int32(a), int32(b))
}

// checkPredicates checks v's prefix chain against the probing oracle,
// compares SelfEncodes on every token in toks, and Compatible on every
// pair of them, with the merge loop, and reports
// whether the walk alone would have been wrong on any of them.
func checkPredicates(t *testing.T, v *Vocab, toks []int) (walkWrong bool) {
	t.Helper()
	checkPrefixChain(t, v)
	for _, r := range toks {
		want := slowSelfEncodes(v, r)
		if got := v.SelfEncodes(r); got != want {
			t.Fatalf("SelfEncodes(%q) = %v, merge loop %v (inverted %v)", v.tokens[r], got, want, v.inverted)
		}
		walkWrong = walkWrong || walkSelfEncodes(v, r) != want
	}
	for _, a := range toks {
		for _, b := range toks {
			want := slowCompatible(v, a, b)
			if got := v.Compatible(a, b); got != want {
				t.Fatalf("Compatible(%q, %q) = %v, merge loop %v (inverted %v)",
					v.tokens[a], v.tokens[b], got, want, v.inverted)
			}
			walkWrong = walkWrong || walkCompatible(v, a, b) != want
		}
	}
	return walkWrong
}

// allRanks returns 0..v.Size()-1.
func allRanks(v *Vocab) []int {
	rs := make([]int, v.Size())
	for r := range rs {
		rs[r] = r
	}
	return rs
}

// TestValidityMatchesMergeLoop checks SelfEncodes on every token and
// Compatible on every ordered pair of every smallVocabs vocabulary,
// trained and adversarial, for both alphabets, against the merge loop.
// The walk alone must be wrong exactly on the vocabularies flagged
// inverted; some adversarial vocabularies must be flagged and some not,
// or the check is vacuous.
func TestValidityMatchesMergeLoop(t *testing.T) {
	for _, alphabet := range []string{"ab", "abc"} {
		flagged := 0
		for vi, v := range smallVocabs(t, alphabet) {
			walkWrong := checkPredicates(t, v, allRanks(v))
			if walkWrong != v.inverted {
				t.Fatalf("%s vocab %d: walk wrong %v, inverted flag %v", alphabet, vi, walkWrong, v.inverted)
			}
			if v.inverted {
				if vi < 3 { // smallVocabs: 3 trained, then adversarial
					t.Errorf("%s: trained vocab %d flagged inverted", alphabet, vi)
				}
				flagged++
			}
		}
		t.Logf("%s: %d of the adversarial vocabularies inverted", alphabet, flagged)
		if flagged == 0 || flagged == 12 {
			t.Errorf("%s: %d of 12 adversarial vocabularies inverted; want some of each", alphabet, flagged)
		}
	}
}

// vocab32k is the bpe experiment's 32k-merge vocabulary (workload.Prompts
// seed 42, 4 MiB, tokens ≤ 7 bytes); it saturates the token-length cap
// below its merge budget.
var vocab32k = sync.OnceValue(func() *Vocab {
	v, err := Train(workload.Prompts(42, 4<<20), 32000, TrainOptions{MaxTokenLen: 7})
	if err != nil {
		panic(err)
	}
	return v
})

// vocab8k is the trained 8k-merge vocabulary of the bpe experiment's
// operating point. Training is greedy and rank order is merge order, so
// it is the first 256+8000 tokens of vocab32k, and one training run
// serves both.
var vocab8k = sync.OnceValue(func() *Vocab {
	v, err := NewVocab(vocab32k().tokens[:256+8000])
	if err != nil {
		panic(err)
	}
	return v
})

// TestValidityTrainedSample checks the walk on the trained 8k
// vocabulary: it must not be flagged inverted, every token's
// SelfEncodes must match the merge loop, and so must Compatible on
// 240k sampled pairs, a third uniform, a third a token's split parents
// and their neighbours (the pairs the walk rejects), a third a token
// next to a prefix of another (the pairs the search tries).
func TestValidityTrainedSample(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an 8k-merge vocabulary")
	}
	v := vocab8k()
	if v.inverted {
		t.Fatal("trained vocabulary flagged inverted")
	}
	n := v.Size()
	for r := 0; r < n; r++ {
		if got, want := v.SelfEncodes(r), v.mergeLoopSelfEncodes(r); got != want {
			t.Fatalf("SelfEncodes(%q) = %v, merge loop %v", v.tokens[r], got, want)
		}
	}
	rng := rand.New(rand.NewSource(19))
	pairs := 240000
	if raceEnabled {
		pairs = 30000
	}
	var valid, invalid int
	for i := 0; i < pairs; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		switch i % 3 {
		case 1:
			sp := v.split[b]
			switch rng.Intn(3) {
			case 0:
				a, b = int(sp.left), int(sp.right)
			case 1:
				b = int(sp.left)
			default:
				a = int(sp.right)
			}
		case 2:
			if p := v.next[b]; p >= 0 {
				b = int(p)
			}
		}
		got := v.Compatible(a, b)
		if want := v.EncodePiece(nil, append(append([]byte(nil), v.tokens[a]...), v.tokens[b]...)); got != (len(want) == 2 && want[0] == a && want[1] == b) {
			t.Fatalf("Compatible(%q, %q) = %v, merge loop encodes %v", v.tokens[a], v.tokens[b], got, want)
		}
		if got {
			valid++
		} else {
			invalid++
		}
	}
	t.Logf("%d pairs: %d valid, %d invalid", pairs, valid, invalid)
	if valid == 0 || invalid == 0 {
		t.Fatal("the sample holds only one outcome; the check is vacuous")
	}
}

func inAlphabet(alphabet string, b byte) bool { return strings.IndexByte(alphabet, b) >= 0 }

// TestInvertedRankTables builds 1,200 random rank tables over "abc",
// inversions included, a quarter of them with late byte ranks: the
// inversion flag must be raised exactly when the walk alone would be
// wrong on some token or pair over the alphabet, and every table,
// flagged or not, must answer exactly.
func TestInvertedRankTables(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tables := 1200
	if raceEnabled {
		tables = 300
	}
	if v, _ := rankTable(abcOverBC); !v.inverted {
		t.Error(`"abc" ranked over "bc" is not flagged inverted`)
	}
	var flagged, kind [2]int // by byte layout: in place, late
	for i := 0; i < tables; i++ {
		late := i%4 == 3
		data := make([]byte, 1+rng.Intn(48))
		rng.Read(data)
		data[0] = 1 // alphabet "abc"
		k := 0
		if late {
			data[0] |= 0x10
			k = 1
		}
		v, over := rankTable(data)
		if walkWrong := checkPredicates(t, v, over); walkWrong != v.inverted {
			t.Fatalf("table %d: walk wrong %v, inverted flag %v", i, walkWrong, v.inverted)
		}
		kind[k]++
		if v.inverted {
			flagged[k]++
		}
	}
	t.Logf("inverted: %d of %d tables with bytes in place, %d of %d with late bytes",
		flagged[0], kind[0], flagged[1], kind[1])
	for k := range kind {
		if flagged[k] == 0 || flagged[k] == kind[k] {
			t.Errorf("byte layout %d: %d of %d tables inverted; want some of each", k, flagged[k], kind[k])
		}
	}
}

// rankTable builds a small rank table from bytes: data[0] picks an
// alphabet of 2–4 letters and whether the letters' byte tokens rank
// among the multi-byte ones (late) or at their byte values; the rest is
// a sequence of tokens, each a length byte (1–4) then that many bytes
// folded onto the alphabet, ranked in order, duplicates dropped.
func rankTable(data []byte) (*Vocab, []int) {
	if len(data) == 0 {
		return nil, nil
	}
	alphabet := "abcd"[:2+int(data[0]%3)]
	late := data[0]&0x10 != 0
	var tokens [][]byte
	seen := map[string]bool{}
	for b := 0; b < 256; b++ {
		if !late || !inAlphabet(alphabet, byte(b)) {
			tokens = append(tokens, []byte{byte(b)})
			seen[string([]byte{byte(b)})] = true
		}
	}
	for data = data[1:]; len(data) > 0 && len(tokens) < 256+24; {
		n := 1 + int(data[0]%4)
		if n >= len(data) {
			break
		}
		tok := make([]byte, n)
		for i := range tok {
			tok[i] = alphabet[int(data[1+i])%len(alphabet)]
		}
		data = data[1+n:]
		if !seen[string(tok)] {
			seen[string(tok)] = true
			tokens = append(tokens, tok)
		}
	}
	for i := 0; i < len(alphabet); i++ {
		if !seen[alphabet[i:i+1]] {
			tokens = append(tokens, []byte{alphabet[i]})
		}
	}
	v, err := NewVocab(tokens)
	if err != nil {
		panic(err) // every byte is present and tokens are distinct
	}
	var over []int
	for r, tok := range v.tokens {
		if inAlphabet(alphabet, tok[0]) {
			over = append(over, r)
		}
	}
	return v, over
}

// abcOverBC is the rankTable input for "abc" at rank 256 and "bc" at
// 257 (letters are given as alphabet indices): "abc" has no monotone
// split but self-encodes, so the table is inverted.
var abcOverBC = []byte{0x01, 0x02, 0, 1, 2, 0x01, 1, 2}

// FuzzLocalValidity fuzzes the rank table: Compatible and SelfEncodes
// must match encodePieceSlow on every token and pair over the alphabet,
// and the inversion flag must be raised exactly when the walk alone
// would be wrong.
func FuzzLocalValidity(f *testing.F) {
	f.Add([]byte{0x01, 0x01, 1, 2}) // "bc": monotone
	f.Add(abcOverBC)
	f.Add([]byte{0x00, 0x01, 1, 0, 0x01, 0, 1, 0x02, 0, 1, 0, 0x03, 0, 1, 0, 1}) // "ba" "ab" "aba" "abab"
	f.Add([]byte{0x12, 0x01, 0, 1, 0x00, 1, 0x02, 0, 1, 0, 0x00, 0})             // late bytes: "ab" "b" "aba" "a"
	f.Add([]byte{0x02, 0x01, 0, 0, 0x02, 0, 0, 0, 0x03, 0, 0, 0, 0, 0x01, 3, 3}) // "aa" "aaa" "aaaa" "dd"
	f.Fuzz(func(t *testing.T, data []byte) {
		v, over := rankTable(data)
		if v == nil {
			return
		}
		if walkWrong := checkPredicates(t, v, over); walkWrong != v.inverted {
			t.Fatalf("walk wrong %v, inverted flag %v", walkWrong, v.inverted)
		}
	})
}

// prefixChainByProbes is the prefix-chain derivation the sorted walk
// replaced, kept as its oracle: probe every proper prefix of every
// token in the rank map, longest first. Quadratic in token length.
func prefixChainByProbes(v *Vocab) []int32 {
	next := make([]int32, len(v.tokens))
	for r, tok := range v.tokens {
		next[r] = -1
		for l := len(tok) - 1; l > 0; l-- {
			if p, ok := v.ranks[string(tok[:l])]; ok {
				next[r] = int32(p)
				break
			}
		}
	}
	return next
}

// checkPrefixChain requires v's prefix chain to equal the probing
// oracle's.
func checkPrefixChain(t *testing.T, v *Vocab) {
	t.Helper()
	if want := prefixChainByProbes(v); !reflect.DeepEqual(v.next, want) {
		for r := range want {
			if v.next[r] != want[r] {
				t.Fatalf("next[%q] = %d, prefix probes %d", v.tokens[r], v.next[r], want[r])
			}
		}
	}
}

// TestPrefixChainTrained: on the trained 1k, 8k and 32k vocabularies
// the sorted walk derives the prefix chain the probing oracle does.
func TestPrefixChainTrained(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 32k-merge vocabulary")
	}
	v32 := vocab32k()
	for _, size := range []int{256 + 1000, 256 + 8000, v32.Size()} {
		checkPrefixChain(t, mustVocab(t, v32.tokens[:size]))
	}
}

// TestPrefixChainRandom: on 300 random vocabularies over "ab" with
// tokens of up to 24 bytes, most of them past the rank-map lookups'
// reach and prefixes of each other, the chain equals the probing
// oracle's.
func TestPrefixChainRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		toks := byteTokens()
		seen := map[string]bool{}
		for j := rng.Intn(60); j > 0; j-- {
			tok := make([]byte, 2+rng.Intn(23))
			for k := range tok {
				tok[k] = "ab"[rng.Intn(2)]
			}
			if !seen[string(tok)] {
				seen[string(tok)] = true
				toks = append(toks, tok)
			}
		}
		rng.Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
		checkPrefixChain(t, mustVocab(t, toks))
	}
}

// TestPrefixChainLinear loads a vocabulary of tokens up to the
// 65,535-byte limit: a random string's prefixes at every power of two,
// eight tokens that share a 60,000-byte prefix, and eight random
// tokens. Deriving the chain must cost at most one probe per token byte
// plus 40 per token (the 36 bytes of a token's eight shortest prefixes
// hashed, bytes compared, stack operations), where probing every proper
// prefix in the rank map hashes about 2^31 bytes per long token. The
// chain must equal a brute-force prefix search.
func TestPrefixChainLinear(t *testing.T) {
	const maxLen = maxTokenBytes
	rng := rand.New(rand.NewSource(29))
	random := func(first byte, n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		b[0] = first
		return b
	}
	toks := byteTokens()
	r := random('r', maxLen)
	for l := 2; l < maxLen; l *= 2 {
		toks = append(toks, r[:l])
	}
	toks = append(toks, r)
	shared := random('s', 60000)
	for i := 0; i < 8; i++ {
		toks = append(toks, append(append([]byte(nil), shared...), random(byte(i), maxLen-len(shared))...))
		toks = append(toks, random('t', maxLen))
	}
	v := mustVocab(t, toks)

	sum := 0
	for _, tok := range toks {
		sum += len(tok)
	}
	next, probes := v.prefixChain()
	if limit := sum + 40*len(toks); probes > limit {
		t.Errorf("%d tokens of %d bytes: %d probes, over %d", len(toks), sum, probes, limit)
	}
	if !reflect.DeepEqual(next, v.next) {
		t.Fatal("prefixChain differs from the loaded vocabulary's chain")
	}
	for i, tok := range v.tokens {
		want := int32(-1)
		for j, p := range v.tokens {
			if len(p) < len(tok) && bytes.HasPrefix(tok, p) && (want < 0 || len(p) > len(v.tokens[want])) {
				want = int32(j)
			}
		}
		if next[i] != want {
			t.Fatalf("token %d (%d bytes): next %d, brute force %d", i, len(tok), next[i], want)
		}
	}
	t.Logf("%d tokens, %d bytes: %d probes", len(toks), sum, probes)
}

// BenchmarkNewVocab8k measures loading the trained 8k vocabulary's
// tokens: the rank map and the local-validity tables.
func BenchmarkNewVocab8k(b *testing.B) {
	toks := vocab8k().tokens
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewVocab(toks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVocabCompile8k measures compiling the trained 8k vocabulary:
// the vocab DFA's trie and sparse layout, and the pretokenizer engine.
// With BenchmarkNewVocab8k it is the set-up a process pays to serve a
// vocabulary.
func BenchmarkVocabCompile8k(b *testing.B) {
	v := vocab8k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(v, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
