package machinefile_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/automata"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/machinefile"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
)

// TestRoundTrip: every catalog grammar encodes and decodes to an
// equivalent machine with the same analysis result.
func TestRoundTrip(t *testing.T) {
	for _, spec := range grammars.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Machine()
			res := analysis.Analyze(m)
			var buf bytes.Buffer
			if err := machinefile.Encode(&buf, m, res.MaxTND); err != nil {
				t.Fatal(err)
			}
			got, err := machinefile.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.MaxTND != res.MaxTND {
				t.Errorf("MaxTND %d, want %d", got.MaxTND, res.MaxTND)
			}
			if !automata.Equivalent(m.DFA, got.Machine.DFA) {
				t.Error("decoded DFA not equivalent")
			}
			if got.Machine.NFASize != m.NFASize {
				t.Errorf("NFASize %d, want %d", got.Machine.NFASize, m.NFASize)
			}
			for i := range spec.Rules {
				if got.Machine.Grammar.RuleName(i) != m.Grammar.RuleName(i) {
					t.Errorf("rule %d name %q, want %q", i, got.Machine.Grammar.RuleName(i), m.Grammar.RuleName(i))
				}
			}
			// Tokenization behaviour identical.
			rng := rand.New(rand.NewSource(3))
			in := testutil.RandomInput(rng, []byte(" ab,09.\n\te+"), 512)
			a, ar := reference.Tokens(m, in)
			b, br := reference.Tokens(got.Machine, in)
			if !reference.Equal(a, b) || ar != br {
				t.Error("decoded machine tokenizes differently")
			}
		})
	}
}

// TestDecodeErrors: truncation, corruption, and garbage all fail with
// ErrFormat — never a panic, never silent misparsing.
func TestDecodeErrors(t *testing.T) {
	m := grammars.JSON().Machine()
	var buf bytes.Buffer
	if err := machinefile.Encode(&buf, m, 3); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		_, err := machinefile.Decode(bytes.NewReader(data))
		if !errors.Is(err, machinefile.ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
	check("empty", nil)
	check("bad magic", append([]byte("NOTAFILE"), full[8:]...))
	for _, cut := range []int{4, 12, len(full) / 2, len(full) - 2} {
		check("truncated", full[:cut])
	}
	// Flip a byte in the middle: the checksum must catch it.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0x40
	check("corrupted", corrupt)
}

// TestDecodeTableCorruption: bit flips inside the transition/accept
// table region — the bulk of the file, where silent corruption would be
// most dangerous (a flipped transition target silently retargets the
// DFA) — are all caught by the checksum.
func TestDecodeTableCorruption(t *testing.T) {
	m := grammars.JSON().Machine()
	var buf bytes.Buffer
	if err := machinefile.Encode(&buf, m, 3); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The file tail is the table section + certPresent + maxTND + crc32;
	// everything before tableStart is the header (magic, rules, sizes).
	// The v3 table section is numClasses + classOf[256] + compressed
	// trans + accept.
	states := m.DFA.NumStates()
	tableLen := 8 + 256 + states*m.DFA.NumClasses()*4 + states*4
	tableStart := len(full) - (tableLen + 8 + 8 + 4)
	if tableStart <= 8 {
		t.Fatalf("implausible table start %d in %d-byte file", tableStart, len(full))
	}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		off := tableStart + int(frac*float64(tableLen-1))
		for _, bit := range []byte{0x01, 0x80} {
			corrupt := append([]byte(nil), full...)
			corrupt[off] ^= bit
			if _, err := machinefile.Decode(bytes.NewReader(corrupt)); !errors.Is(err, machinefile.ErrFormat) {
				t.Errorf("flip bit %#x at offset %d: err = %v, want ErrFormat", bit, off, err)
			}
		}
	}
	// Corrupting the stored CRC itself must also fail.
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := machinefile.Decode(bytes.NewReader(corrupt)); !errors.Is(err, machinefile.ErrFormat) {
		t.Errorf("crc flip: err = %v, want ErrFormat", err)
	}
}

// TestDecodeHugeStateHeader: a tiny file whose header claims a maximal
// table must fail on the missing bytes without committing table-sized
// memory first (the incremental read caps allocation per chunk). If
// Decode pre-allocated from the header this test would OOM, not fail.
func TestDecodeHugeStateHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("STOKDFA1")
	wr := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		buf.Write(b[:])
	}
	wr(1) // ruleCount
	wr(1) // name length
	buf.WriteByte('a')
	wr(1) // source length
	buf.WriteByte('a')
	wr(1)       // nfaSize
	wr(1 << 24) // states: claims a 16 GB transition table
	if _, err := machinefile.Decode(bytes.NewReader(buf.Bytes())); !errors.Is(err, machinefile.ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

// TestUnboundedRoundTrip: a grammar whose max-TND is infinite survives
// the machinefile round trip with the -1 sentinel intact — the load
// path reports exactly what the analysis found, and it is the serving
// registry's job (tested in internal/server) to refuse it with a
// diagnostic rather than this package's to lose the information.
func TestUnboundedRoundTrip(t *testing.T) {
	spec, err := grammars.Lookup("c")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Machine()
	res := analysis.Analyze(m)
	if res.Bounded() {
		t.Fatal("catalog grammar c should have unbounded max-TND")
	}
	var buf bytes.Buffer
	if err := machinefile.Encode(&buf, m, res.MaxTND); err != nil {
		t.Fatal(err)
	}
	got, err := machinefile.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxTND != analysis.Infinite {
		t.Errorf("MaxTND = %d, want the Infinite sentinel", got.MaxTND)
	}
	if !automata.Equivalent(m.DFA, got.Machine.DFA) {
		t.Error("decoded DFA not equivalent")
	}
}

// TestDecodeFuzzResilience: random byte soup never panics.
func TestDecodeFuzzResilience(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		if i%3 == 0 {
			copy(data, "STOKDFA1") // valid magic, garbage body
		}
		if _, err := machinefile.Decode(bytes.NewReader(data)); err == nil {
			t.Fatalf("garbage decoded successfully (len %d)", len(data))
		}
	}
}

// FuzzDecode: arbitrary bytes never panic the decoder; every failure is
// ErrFormat-wrapped; anything that decodes re-encodes and decodes to an
// equivalent machine (the accepted subset round-trips).
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"json", "csv"} {
		spec, err := grammars.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		m := spec.Machine()
		res := analysis.Analyze(m)
		var buf bytes.Buffer
		if err := machinefile.Encode(&buf, m, res.MaxTND); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(full)
		f.Add(full[:len(full)/2])
		mid := append([]byte(nil), full...)
		mid[len(mid)/3] ^= 0x10
		f.Add(mid)
		// A certificate-bearing encoding of the same machine, so the
		// fuzzer mutates the cert section, not just the common layout
		// (the frozen v1/v2 layouts come from the committed seed-v1-*
		// and seed-v2-* corpus files).
		c := certFor(f, m, res)
		var certBuf bytes.Buffer
		if err := machinefile.EncodeWithCert(&certBuf, m, res.MaxTND, c); err != nil {
			f.Fatal(err)
		}
		f.Add(certBuf.Bytes())
		// v3-specific damage: truncation inside the class map and an
		// out-of-range class index, so the fuzzer starts from the
		// compressed-table validation paths.
		cmOff := classMapOffset(m, full)
		f.Add(full[:cmOff+100])
		oob := append([]byte(nil), full...)
		oob[cmOff+5] = 0xff
		f.Add(oob)
	}
	// A well-formed version 3 file relabeled version 4: refused by its
	// magic, however sound the rest is.
	var relabeled bytes.Buffer
	if err := machinefile.Encode(&relabeled, grammars.CSV().Machine(), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte("STOKDFA4"), relabeled.Bytes()[8:]...))
	f.Add([]byte("STOKDFA1"))
	f.Add([]byte("STOKDFA2"))
	f.Add([]byte("STOKDFA3"))
	f.Add([]byte("STOKDFA4"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := machinefile.Decode(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, machinefile.ErrFormat) {
				t.Fatalf("decode error not ErrFormat-wrapped: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := machinefile.EncodeWithCert(&buf, got.Machine, got.MaxTND, got.Cert); err != nil {
			t.Fatalf("re-encode of accepted machine: %v", err)
		}
		again, err := machinefile.Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted machine: %v", err)
		}
		if again.MaxTND != got.MaxTND || !automata.Equivalent(got.Machine.DFA, again.Machine.DFA) {
			t.Fatal("accepted machine does not round-trip")
		}
		if (again.Cert == nil) != (got.Cert == nil) {
			t.Fatal("certificate presence does not round-trip")
		}
	})
}

// certFor builds the engine for m and derives its resource certificate,
// the same way SaveCompiled does.
func certFor(tb testing.TB, m *tokdfa.Machine, res analysis.Result) *cert.Certificate {
	tb.Helper()
	tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cert.New(m, res, tok)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestCertRoundTrip: every bounded catalog grammar's certificate
// survives the machinefile round trip field-for-field, and the decoded
// file passes the same static verification a loader runs.
func TestCertRoundTrip(t *testing.T) {
	for _, spec := range grammars.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := spec.Machine()
			res := analysis.Analyze(m)
			if !res.Bounded() {
				t.Skipf("%s is unbounded; no certificate", spec.Name)
			}
			c := certFor(t, m, res)
			var buf bytes.Buffer
			if err := machinefile.EncodeWithCert(&buf, m, res.MaxTND, c); err != nil {
				t.Fatal(err)
			}
			got, err := machinefile.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cert == nil {
				t.Fatal("decoded file lost its certificate")
			}
			if !reflect.DeepEqual(got.Cert, c) {
				t.Errorf("cert round trip:\n got %+v\nwant %+v", got.Cert, c)
			}
			// Decode already verified statically; verifying again here
			// guards against Decode forgetting to.
			if err := got.Cert.VerifyStatic(got.Machine, got.MaxTND); err != nil {
				t.Errorf("decoded cert fails static verification: %v", err)
			}
		})
	}
}

// TestCertTruncationSweep: cutting a cert-bearing file at every offset
// in the cert region fails with ErrFormat — the same resilience the
// common layout already has.
func TestCertTruncationSweep(t *testing.T) {
	m := grammars.JSON().Machine()
	res := analysis.Analyze(m)
	c := certFor(t, m, res)
	var withCert, without bytes.Buffer
	if err := machinefile.EncodeWithCert(&withCert, m, res.MaxTND, c); err != nil {
		t.Fatal(err)
	}
	if err := machinefile.Encode(&without, m, res.MaxTND); err != nil {
		t.Fatal(err)
	}
	full := withCert.Bytes()
	// The cert section sits between the accept table and maxTND: its
	// size is the file-length delta, its start is certPresent's offset
	// in the smaller file.
	certLen := len(full) - without.Len()
	certStart := without.Len() - (8 + 8 + 4)
	if certLen <= 0 || certStart <= 8 {
		t.Fatalf("implausible cert section: start %d len %d", certStart, certLen)
	}
	for cut := certStart - 1; cut < certStart+certLen+1; cut++ {
		if _, err := machinefile.Decode(bytes.NewReader(full[:cut])); !errors.Is(err, machinefile.ErrFormat) {
			t.Fatalf("truncate at %d: err = %v, want ErrFormat", cut, err)
		}
	}
	// Bit flips across the cert section: the checksum catches each.
	for off := certStart; off < certStart+certLen; off += 7 {
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0x20
		if _, err := machinefile.Decode(bytes.NewReader(corrupt)); !errors.Is(err, machinefile.ErrFormat) {
			t.Fatalf("flip at %d: err = %v, want ErrFormat", off, err)
		}
	}
}

// TestCertSemanticTamper: a cert whose claims disagree with the machine
// is refused at decode even when the file itself is intact (valid CRC).
// This is the attack the checksum cannot catch — a well-formed file
// making false cost claims — and the reason Decode replays the cheap
// bounds and the witness instead of trusting the bytes.
func TestCertSemanticTamper(t *testing.T) {
	m := grammars.JSON().Machine()
	res := analysis.Analyze(m)
	good := certFor(t, m, res)

	tampers := map[string]func(c *cert.Certificate){
		"grammar hash":    func(c *cert.Certificate) { c.GrammarHash = "0000" + c.GrammarHash[4:] },
		"delay K":         func(c *cert.Certificate) { c.DelayK++ },
		"dichotomy bound": func(c *cert.Certificate) { c.DichotomyBound += 3 },
		"carry cap":       func(c *cert.Certificate) { c.CarryRetainedCap /= 2 },
		"parallel rework": func(c *cert.Certificate) { c.ParallelReworkX = 1 },
		"witness byte":    func(c *cert.Certificate) { c.WitnessV[len(c.WitnessV)-1] ^= 0xff },
		"witness length":  func(c *cert.Certificate) { c.WitnessV = append(c.WitnessV, 'x') },
		"witness dropped": func(c *cert.Certificate) { c.WitnessU, c.WitnessV = nil, nil },
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			bad := *good
			bad.WitnessU = append([]byte(nil), good.WitnessU...)
			bad.WitnessV = append([]byte(nil), good.WitnessV...)
			tamper(&bad)
			// Encode computes an honest CRC over the tampered cert: only
			// semantic verification can reject this file.
			var buf bytes.Buffer
			if err := machinefile.EncodeWithCert(&buf, m, res.MaxTND, &bad); err != nil {
				t.Fatal(err)
			}
			_, err := machinefile.Decode(&buf)
			if !errors.Is(err, machinefile.ErrFormat) || !errors.Is(err, cert.ErrMismatch) {
				t.Fatalf("err = %v, want ErrFormat wrapping cert.ErrMismatch", err)
			}
		})
	}
}

// legacySeed returns the machine bytes stored in a committed FuzzDecode
// corpus file: the frozen version 1/2 files live there, written when
// their encoders still existed.
func legacySeed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	lit, ok := strings.CutPrefix(body, "[]byte(")
	if header != "go test fuzz v1" || !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a single-[]byte fuzz corpus file", name)
	}
	raw, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(raw)
}

// TestV1CrossVersionLoad: a legacy version-1 file (no certificate)
// still decodes — old machine files keep working, they just carry no
// cost claims (Cert == nil tells the loader to certify fresh).
func TestV1CrossVersionLoad(t *testing.T) {
	m := grammars.JSON().Machine()
	res := analysis.Analyze(m)
	got, err := machinefile.Decode(bytes.NewReader(legacySeed(t, "seed-v1-json")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cert != nil {
		t.Error("v1 file decoded with a certificate from nowhere")
	}
	if got.MaxTND != res.MaxTND {
		t.Errorf("MaxTND = %d, want %d", got.MaxTND, res.MaxTND)
	}
	if !automata.Equivalent(m.DFA, got.Machine.DFA) {
		t.Error("decoded DFA not equivalent")
	}
}

// TestRegenFuzzSeeds rewrites the certificate-related fuzz seed corpus
// under testdata/fuzz/FuzzDecode when MACHINEFILE_REGEN_SEEDS=1 — run
// it after changing the cert section layout so the committed corpus
// keeps exercising the current format. A no-op (skip) otherwise. The
// seed-v1-*, seed-v2-* and version 4 (seed-v4-*, seed-magic-v4) files
// are not rewritten: those formats are frozen and their writers are
// gone; the version 4 ones stay as inputs Decode must refuse.
func TestRegenFuzzSeeds(t *testing.T) {
	if os.Getenv("MACHINEFILE_REGEN_SEEDS") == "" {
		t.Skip("set MACHINEFILE_REGEN_SEEDS=1 to rewrite the seed corpus")
	}
	write := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join("testdata", "fuzz", "FuzzDecode", name)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"json", "csv"} {
		spec, err := grammars.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m := spec.Machine()
		res := analysis.Analyze(m)
		c := certFor(t, m, res)
		var buf bytes.Buffer
		if err := machinefile.EncodeWithCert(&buf, m, res.MaxTND, c); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		write("seed-cert-"+name, full)
		// Cut and flip inside the cert section (the tail before
		// maxTND+crc), so the fuzzer starts from cert-shaped damage.
		write("seed-cert-trunc-"+name, full[:len(full)-(8+4+20)])
		flip := append([]byte(nil), full...)
		flip[len(flip)-(8+4+40)] ^= 0x08
		write("seed-cert-flip-"+name, flip)
		// Compressed-table damage: a cert-free v3 file truncated inside
		// the class map, and one whose class map names an undeclared
		// class.
		var plain bytes.Buffer
		if err := machinefile.Encode(&plain, m, res.MaxTND); err != nil {
			t.Fatal(err)
		}
		p := plain.Bytes()
		cmOff := classMapOffset(m, p)
		write("seed-classmap-trunc-"+name, p[:cmOff+100])
		oob := append([]byte(nil), p...)
		oob[cmOff+5] = 0xff
		write("seed-classmap-oob-"+name, oob)
	}
	write("seed-magic-v2", []byte("STOKDFA2"))
	write("seed-magic-v3", []byte("STOKDFA3"))
}

// TestV4Refused: version 4 files, which carried a vocabulary's sparse
// vocab-DFA tables, fail in Decode with ErrFormat, clean or damaged;
// and Encode refuses a machine without a class table rather than write
// a version 3 file with no transitions: the sparse literal-set machine
// a vocabulary compiles to, and a grammar machine stripped of its
// table.
func TestV4Refused(t *testing.T) {
	for _, name := range []string{"seed-v4-sparse", "seed-v4-trunc", "seed-v4-flip", "seed-magic-v4"} {
		data := legacySeed(t, name)
		if !bytes.HasPrefix(data, []byte("STOKDFA4")) {
			t.Fatalf("%s: not a version 4 file", name)
		}
		if _, err := machinefile.Decode(bytes.NewReader(data)); !errors.Is(err, machinefile.ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}

	lits := [][]byte{[]byte("in"), []byte("int"), []byte("the")}
	for b := 0; b < 256; b++ {
		lits = append(lits, []byte{byte(b)})
	}
	vm, err := tokdfa.CompileLiterals(lits, tokdfa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stripped := *grammars.CSV().Machine()
	dfa := *stripped.DFA
	dfa.Trans = nil
	stripped.DFA = &dfa
	for name, m := range map[string]*tokdfa.Machine{"sparse": vm, "no-class-table": &stripped} {
		var buf bytes.Buffer
		if err := machinefile.Encode(&buf, m, 0); err == nil {
			t.Errorf("%s: Encode accepted a machine without a class table", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Encode wrote %d bytes before refusing", name, buf.Len())
		}
	}
}

// failWriter fails after n bytes, exercising Encode's error paths.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errShort
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShort
	}
	w.n -= len(p)
	return len(p), nil
}

var errShort = errors.New("short write")

// TestEncodeWriterErrors: every write failure surfaces.
func TestEncodeWriterErrors(t *testing.T) {
	m := grammars.CSV().Machine()
	var full bytes.Buffer
	if err := machinefile.Encode(&full, m, 1); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 4, 16, 100, full.Len() - 1} {
		if err := machinefile.Encode(&failWriter{n: budget}, m, 1); !errors.Is(err, errShort) {
			t.Errorf("budget %d: err = %v, want short write", budget, err)
		}
	}
}

// classMapOffset locates the 256-byte class map inside a certificate-free
// v3 encoding of m: the tail after it is fixed-size (compressed trans,
// accept, certPresent=0, maxTND, crc32).
func classMapOffset(m *tokdfa.Machine, full []byte) int {
	states := m.DFA.NumStates()
	return len(full) - 4 - 8 - 8 - states*4 - states*m.DFA.NumClasses()*4 - 256
}

// TestDecodeClassMapCorruption: the v3-specific failure modes — a file
// truncated inside the class map, a class map entry naming a class the
// header doesn't declare, and a class map that leaves a declared class
// with no representative byte — are all rejected as ErrFormat, never a
// panic or a silently wrong machine.
func TestDecodeClassMapCorruption(t *testing.T) {
	m := grammars.JSON().Machine()
	var buf bytes.Buffer
	if err := machinefile.Encode(&buf, m, 3); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	off := classMapOffset(m, full)
	if off <= 8 {
		t.Fatalf("implausible class map offset %d in %d-byte file", off, len(full))
	}

	trunc := full[:off+100]
	if _, err := machinefile.Decode(bytes.NewReader(trunc)); !errors.Is(err, machinefile.ErrFormat) {
		t.Errorf("truncated class map: err = %v, want ErrFormat", err)
	}

	oob := append([]byte(nil), full...)
	oob[off+5] = 0xff // class 255 with NumClasses ~20 declared
	if _, err := machinefile.Decode(bytes.NewReader(oob)); !errors.Is(err, machinefile.ErrFormat) {
		t.Errorf("out-of-range class index: err = %v, want ErrFormat", err)
	}

	norep := append([]byte(nil), full...)
	for i := 0; i < 256; i++ {
		norep[off+i] = 0 // every byte in class 0: classes 1.. lose their representative
	}
	if _, err := machinefile.Decode(bytes.NewReader(norep)); !errors.Is(err, machinefile.ErrFormat) {
		t.Errorf("class without representative: err = %v, want ErrFormat", err)
	}
}

// TestV2CrossVersionLoad: a legacy dense v2 file (certificate included)
// still decodes — the dense rows are compressed on load, the version
// marker tells loaders to re-certify — and re-encoding the decoded
// machine produces a current v3 file carrying the same language.
func TestV2CrossVersionLoad(t *testing.T) {
	m := grammars.JSON().Machine()
	got, err := machinefile.Decode(bytes.NewReader(legacySeed(t, "seed-v2-json")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 2 {
		t.Errorf("Version = %d, want 2", got.Version)
	}
	if got.Cert == nil {
		t.Fatal("v2 file decoded without its certificate")
	}
	if got.Cert.NumClasses != 0 || got.Cert.DenseTableBytes != 0 {
		t.Errorf("v2 cert carries compression fields (%d classes, %d dense bytes), want zeros",
			got.Cert.NumClasses, got.Cert.DenseTableBytes)
	}
	if !automata.Equivalent(m.DFA, got.Machine.DFA) {
		t.Error("decoded DFA not equivalent to the dense original")
	}
	if got.Machine.DFA.NumClasses() != m.DFA.NumClasses() {
		t.Errorf("recompressed class count = %d, want %d (tighten is canonical)",
			got.Machine.DFA.NumClasses(), m.DFA.NumClasses())
	}

	// v2 -> v3 round trip: re-encode in the current format with a fresh
	// certificate for the rebuilt machine.
	c3 := certFor(t, got.Machine, analysis.Analyze(got.Machine))
	var v3 bytes.Buffer
	if err := machinefile.EncodeWithCert(&v3, got.Machine, got.MaxTND, c3); err != nil {
		t.Fatal(err)
	}
	again, err := machinefile.Decode(&v3)
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != 3 {
		t.Errorf("re-encoded Version = %d, want 3", again.Version)
	}
	if again.Cert == nil || again.Cert.NumClasses != m.DFA.NumClasses() {
		t.Errorf("v3 cert class count not preserved: %+v", again.Cert)
	}
	if !automata.Equivalent(m.DFA, again.Machine.DFA) {
		t.Error("v2->v3 round trip changed the language")
	}
}
