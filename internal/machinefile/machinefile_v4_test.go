package machinefile_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/automata"
	"streamtok/internal/bpe"
	"streamtok/internal/core"
	"streamtok/internal/machinefile"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// sparseMachine compiles a small BPE vocabulary's maximal-munch DFA and
// adopts the sparse serving layout — the producer every version 4 file
// has: a byte-complete machine whose class partition is degenerate.
func sparseMachine(tb testing.TB, merges int) *tokdfa.Machine {
	tb.Helper()
	v, err := bpe.Train(workload.Prompts(11, 1<<17), merges, bpe.TrainOptions{MaxTokenLen: 6})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := tokdfa.Compile(v.Rules(), tokdfa.Options{Minimize: true})
	if err != nil {
		tb.Fatal(err)
	}
	if m.DFA.NumClasses() != 256 {
		tb.Fatalf("vocab machine should be byte-complete, got C=%d", m.DFA.NumClasses())
	}
	adoptSparse(tb, m)
	return m
}

// adoptSparse swaps m's class table for the row-displacement layout, the
// serving representation tokdfa.CompileLiterals gives a vocabulary.
func adoptSparse(tb testing.TB, m *tokdfa.Machine) {
	tb.Helper()
	sp := automata.Sparsify(m.DFA)
	if sp.TableBytes() >= m.DFA.TableBytes() {
		tb.Fatalf("sparse layout %d B is not smaller than the class table %d B", sp.TableBytes(), m.DFA.TableBytes())
	}
	m.Sparse = sp
	m.DFA.Trans = nil
}

// sparseStepsEqual walks every state over a byte sample through both
// machines' serving representations (sparse machines have no class
// table, so automata.Equivalent cannot compare them).
func sparseStepsEqual(a, b *tokdfa.Machine) bool {
	if a.DFA.NumStates() != b.DFA.NumStates() {
		return false
	}
	for q := 0; q < a.DFA.NumStates(); q++ {
		if a.DFA.Accept[q] != b.DFA.Accept[q] {
			return false
		}
		for by := 0; by < 256; by++ {
			if a.StepByte(q, byte(by)) != b.StepByte(q, byte(by)) {
				return false
			}
		}
	}
	return true
}

// TestV4SparseRoundTrip: a sparse machine encodes in the version 4
// format and decodes to the same stepping behaviour, with the sparse
// layout (not a class table) resident, and re-encodes byte-identically.
func TestV4SparseRoundTrip(t *testing.T) {
	m := sparseMachine(t, 300)
	var buf bytes.Buffer
	if err := machinefile.Encode(&buf, m, 0); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := machinefile.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 4 {
		t.Errorf("Version = %d, want 4", got.Version)
	}
	if got.Machine.Sparse == nil {
		t.Fatal("decoded machine lost the sparse layout")
	}
	if got.Machine.DFA.Trans != nil {
		t.Error("decoded sparse machine carries a class table")
	}
	if !sparseStepsEqual(m, got.Machine) {
		t.Error("decoded machine steps differently")
	}
	for q := range m.CoAcc {
		if m.CoAcc[q] != got.Machine.CoAcc[q] {
			t.Fatalf("CoAcc[%d] = %v, want %v", q, got.Machine.CoAcc[q], m.CoAcc[q])
		}
	}
	var again bytes.Buffer
	if err := machinefile.Encode(&again, got.Machine, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Error("re-encode of decoded sparse machine differs")
	}

	// Sparse machines are scanner-only: the streaming engines must
	// refuse them rather than index the missing class table.
	if _, err := core.NewWithKBudget(got.Machine, 1, tepath.Limits{}, -1); err == nil {
		t.Error("split engine accepted a sparse-only machine")
	}
}

// TestV4SparseCertRoundTrip: the 11-field version 4 certificate section
// round-trips field-for-field (sparse table bytes included) and a
// tampered sparse-bytes claim is refused at decode despite an honest
// checksum.
func TestV4SparseCertRoundTrip(t *testing.T) {
	v, err := bpe.Train(workload.Prompts(11, 1<<17), 300, bpe.TrainOptions{MaxTokenLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tokdfa.Compile(v.Rules(), tokdfa.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Certify before adopting the sparse layout (the engine the
	// certificate binds to needs the class table), then record the
	// serving representation the file actually ships.
	res := analysis.Analyze(m)
	if !res.Bounded() {
		t.Fatal("finite vocabulary analyzed as unbounded")
	}
	c := certFor(t, m, res)
	adoptSparse(t, m)
	c.SparseTableBytes = m.Sparse.TableBytes()

	var buf bytes.Buffer
	if err := machinefile.EncodeWithCert(&buf, m, res.MaxTND, c); err != nil {
		t.Fatal(err)
	}
	got, err := machinefile.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 4 {
		t.Errorf("Version = %d, want 4", got.Version)
	}
	if got.Cert == nil {
		t.Fatal("decoded file lost its certificate")
	}
	if !reflect.DeepEqual(got.Cert, c) {
		t.Errorf("cert round trip:\n got %+v\nwant %+v", got.Cert, c)
	}

	// A well-formed file whose sparse-bytes claim is false: only the
	// semantic check can catch it.
	bad := *c
	bad.SparseTableBytes += 64
	var tampered bytes.Buffer
	if err := machinefile.EncodeWithCert(&tampered, m, res.MaxTND, &bad); err != nil {
		t.Fatal(err)
	}
	_, err = machinefile.Decode(&tampered)
	if !errors.Is(err, machinefile.ErrFormat) || !errors.Is(err, cert.ErrMismatch) {
		t.Fatalf("tampered sparse bytes: err = %v, want ErrFormat wrapping cert.ErrMismatch", err)
	}
}

// TestV4SparseCorruption: bit flips and truncations inside the sparse
// table section are rejected as ErrFormat, never a panic or a silently
// retargeted scanner.
func TestV4SparseCorruption(t *testing.T) {
	m := sparseMachine(t, 120)
	var buf bytes.Buffer
	if err := machinefile.Encode(&buf, m, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The sparse section is the file tail before certPresent + maxTND +
	// crc32: base + default + entryLen word + next + check + denseRows
	// word + dense + accept.
	states := m.DFA.NumStates()
	tableLen := states*4*2 + 8 + len(m.Sparse.Next)*4*2 + 8 + len(m.Sparse.Dense)*4 + states*4
	tableStart := len(full) - (tableLen + 8 + 8 + 4)
	if tableStart <= 8 {
		t.Fatalf("implausible sparse section start %d in %d-byte file", tableStart, len(full))
	}
	for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.999} {
		off := tableStart + int(frac*float64(tableLen-1))
		corrupt := append([]byte(nil), full...)
		corrupt[off] ^= 0x04
		if _, err := machinefile.Decode(bytes.NewReader(corrupt)); !errors.Is(err, machinefile.ErrFormat) {
			t.Errorf("flip at offset %d: err = %v, want ErrFormat", off, err)
		}
		if _, err := machinefile.Decode(bytes.NewReader(full[:off])); !errors.Is(err, machinefile.ErrFormat) {
			t.Errorf("truncate at offset %d: err = %v, want ErrFormat", off, err)
		}
	}
}
