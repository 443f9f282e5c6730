// Package machinefile serializes compiled tokenization machines so a
// grammar can be compiled once (analysis included) and shipped as tables
// — the deployment mode of generated lexers, without code generation.
//
// The current format (version 4) is a versioned little-endian binary
// carrying the transition table in its serving representation. The
// table section opens with the class map and a representation tag:
//
//	magic "STOKDFA4" | ruleCount | rules (name, regex source) |
//	nfaSize | dfaStates | numClasses | classOf[256] | reprTag |
//	  tag 0 (class table):  trans[dfaStates*numClasses]
//	  tag 1 (sparse):       base[dfaStates] | default[dfaStates] |
//	                        entryLen | next[entryLen] | check[entryLen] |
//	                        denseRows | dense[denseRows*numClasses]
//	accept[dfaStates] |
//	certPresent | [resource certificate] |
//	maxTND (-1 = unbounded) | crc32 of everything before it
//
// Tag 1 is the row-displacement sparse layout BPE vocab DFAs adopt when
// their class partition is degenerate (C = 256): shipping the sparse
// arrays instead of a states×256 class table keeps 32k-merge vocabulary
// files (and their resident decode) small. Sparse machines are
// scanner-only — the streaming engines require a class table and refuse
// them at construction.
//
// Version 3 files ("STOKDFA3") are the class-table-only layout:
//
//	magic "STOKDFA3" | ruleCount | rules (name, regex source) |
//	nfaSize | dfaStates | numClasses | classOf[256] |
//	trans[dfaStates*numClasses] | accept[dfaStates] |
//	certPresent | [resource certificate] |
//	maxTND (-1 = unbounded) | crc32 of everything before it
//
// Encode still emits version 3 for class-table machines — only machines
// that actually serve sparse need the version 4 section, so existing
// artifacts stay byte-identical.
// The resource certificate (internal/analysis/cert) carries the
// machine-checkable cost claims: delay K with its dichotomy bound and
// witness pair, ring/carry/table byte bounds, class count and accel
// coverage, plus the retained ParallelReworkX format field (always 2).
// Decode verifies the static
// half of a present certificate and refuses the file on any mismatch, so
// a shipped machinefile's cost claims can be trusted without re-analysis.
//
// Version 1 files ("STOKDFA1", dense rows, no certificate section) and
// version 2 files ("STOKDFA2", dense rows + certificate) still decode:
// the dense table is compressed on load. Version 2 certificates predate
// class compression, so their byte-accounting fields describe the dense
// layout; loaders should re-certify (Machine.Version tells them to) —
// the static half is layout-independent and is still verified here.
//
// Rule regexes are stored as re-parsable source, so the machine can be
// fully rebuilt (and re-verified) on load; the tables make loading
// cheap — no determinization on the hot path.
package machinefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/automata"
	"streamtok/internal/regex"
	"streamtok/internal/tokdfa"
)

var (
	magicV1 = [8]byte{'S', 'T', 'O', 'K', 'D', 'F', 'A', '1'}
	magicV2 = [8]byte{'S', 'T', 'O', 'K', 'D', 'F', 'A', '2'}
	magicV3 = [8]byte{'S', 'T', 'O', 'K', 'D', 'F', 'A', '3'}
	magicV4 = [8]byte{'S', 'T', 'O', 'K', 'D', 'F', 'A', '4'}
)

// Representation tags of the version 4 table section.
const (
	reprClassTable = 0
	reprSparse     = 1
)

// ErrFormat is wrapped by all decoding errors caused by malformed input,
// including a certificate that fails static verification.
var ErrFormat = errors.New("machinefile: invalid or corrupted file")

// Machine bundles a compiled machine with its analysis result and
// resource certificate for round-tripping.
type Machine struct {
	Machine *tokdfa.Machine
	// MaxTND is the stored analysis result (analysis.Infinite if
	// unbounded).
	MaxTND int
	// Cert is the stored resource certificate, statically verified at
	// decode time; nil when the file carries none (version 1 files, or
	// unbounded machines, which have no certificate).
	Cert *cert.Certificate
	// Version is the file format version the machine was decoded from
	// (3 for class-table files, 4 for sparse-representation files).
	// Certificates from versions < 3 describe the dense table layout, so
	// loaders re-certify instead of matching the stored byte accounting
	// against the compressed engine.
	Version int
}

// encoder wraps the shared little-endian + CRC plumbing.
type encoder struct {
	out io.Writer
	err error
}

func (e *encoder) ints(vals ...int64) {
	for _, v := range vals {
		if e.err == nil {
			e.err = binary.Write(e.out, binary.LittleEndian, v)
		}
	}
}

func (e *encoder) bytes(b []byte) {
	e.ints(int64(len(b)))
	if e.err == nil {
		_, e.err = e.out.Write(b)
	}
}

// writeRules writes the rule list and the NFA/DFA size header (identical
// in all versions).
func (e *encoder) writeRules(m *tokdfa.Machine) {
	g := m.Grammar
	e.ints(int64(len(g.Rules)))
	for i, r := range g.Rules {
		e.bytes([]byte(g.RuleName(i)))
		e.bytes([]byte(regex.String(r.Expr)))
	}
	e.ints(int64(m.NFASize), int64(m.DFA.NumStates()))
}

// writeCompressedTables writes the version 3 table section: the class
// count, the 256-entry class map, the compressed rows, and the accept
// labels.
func (e *encoder) writeCompressedTables(m *tokdfa.Machine) {
	d := m.DFA
	e.ints(int64(d.NumClasses()))
	if e.err == nil {
		_, e.err = e.out.Write(d.ClassOf[:])
	}
	if e.err == nil {
		e.err = binary.Write(e.out, binary.LittleEndian, d.Trans)
	}
	if e.err == nil {
		e.err = binary.Write(e.out, binary.LittleEndian, d.Accept)
	}
}

// writeSparseTables writes the version 4 table section: the class map,
// the sparse representation tag, the row-displacement arrays, and the
// accept labels.
func (e *encoder) writeSparseTables(m *tokdfa.Machine) {
	d, sp := m.DFA, m.Sparse
	e.ints(int64(d.NumClasses()))
	if e.err == nil {
		_, e.err = e.out.Write(d.ClassOf[:])
	}
	e.ints(reprSparse)
	for _, arr := range [][]int32{sp.Base, sp.Default} {
		if e.err == nil {
			e.err = binary.Write(e.out, binary.LittleEndian, arr)
		}
	}
	e.ints(int64(len(sp.Next)))
	for _, arr := range [][]int32{sp.Next, sp.Check} {
		if e.err == nil {
			e.err = binary.Write(e.out, binary.LittleEndian, arr)
		}
	}
	e.ints(int64(len(sp.Dense) / d.NumClasses()))
	if e.err == nil {
		e.err = binary.Write(e.out, binary.LittleEndian, sp.Dense)
	}
	if e.err == nil {
		e.err = binary.Write(e.out, binary.LittleEndian, d.Accept)
	}
}

// writeCert writes the certificate section: the presence flag and, when
// c is non-nil, the certificate fields — the original eight, then the
// two compression-era fields (class count, dense-equivalent table
// bytes); v4 files add the sparse table bytes.
func (e *encoder) writeCert(c *cert.Certificate, version int) {
	if c == nil {
		e.ints(0)
		return
	}
	e.ints(1)
	e.bytes([]byte(c.GrammarHash))
	e.ints(int64(c.DelayK), int64(c.DichotomyBound),
		int64(c.RingBytes), int64(c.CarryRetainedCap), int64(c.TableBytes),
		int64(c.AccelStates), int64(c.AccelSlots), int64(c.ParallelReworkX))
	e.ints(int64(c.NumClasses), int64(c.DenseTableBytes))
	if version >= 4 {
		e.ints(int64(c.SparseTableBytes))
	}
	e.bytes([]byte(c.EngineMode))
	e.bytes(c.WitnessU)
	e.bytes(c.WitnessV)
}

// writeTail writes the max-TND word and the trailing checksum.
func (e *encoder) writeTail(w io.Writer, crc hash.Hash32, maxTND int) error {
	tnd := int64(maxTND)
	if maxTND == analysis.Infinite {
		tnd = -1
	}
	e.ints(tnd)
	if e.err != nil {
		return e.err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// Encode writes m (with its known max-TND) to w in the current format,
// without a certificate section. Prefer EncodeWithCert for artifacts
// that ship cost claims.
func Encode(w io.Writer, m *tokdfa.Machine, maxTND int) error {
	return EncodeWithCert(w, m, maxTND, nil)
}

// EncodeWithCert writes m with its resource certificate (nil c writes
// "certificate absent"). Machines serving from the sparse layout are
// written in the version 4 format (the only one that can carry it);
// class-table machines stay on version 3, keeping existing artifacts
// byte-identical. The certificate is covered by the trailing checksum
// like every other section.
func EncodeWithCert(w io.Writer, m *tokdfa.Machine, maxTND int, c *cert.Certificate) error {
	crc := crc32.NewIEEE()
	e := &encoder{out: io.MultiWriter(w, crc)}

	if m.Sparse != nil {
		if _, err := e.out.Write(magicV4[:]); err != nil {
			return err
		}
		e.writeRules(m)
		e.writeSparseTables(m)
		e.writeCert(c, 4)
		return e.writeTail(w, crc, maxTND)
	}
	if _, err := e.out.Write(magicV3[:]); err != nil {
		return err
	}
	e.writeRules(m)
	e.writeCompressedTables(m)
	e.writeCert(c, 3)
	return e.writeTail(w, crc, maxTND)
}

// tableChunk bounds how many int32s readInt32s decodes per read, so the
// memory committed to a table tracks the bytes actually present in the
// file rather than the count its header claims.
const tableChunk = 1 << 16

// readInt32s decodes total little-endian int32s from r incrementally.
// A header advertising a huge table (states is attacker-controlled in a
// corrupted or malicious file) therefore costs at most one chunk of
// allocation before the missing bytes surface as an error — never a
// multi-gigabyte up-front make.
func readInt32s(r io.Reader, total int) ([]int32, error) {
	capHint := total
	if capHint > tableChunk {
		capHint = tableChunk
	}
	out := make([]int32, 0, capHint)
	scratch := make([]byte, 4*capHint)
	for len(out) < total {
		n := total - len(out)
		if n > tableChunk {
			n = tableChunk
		}
		buf := scratch[:4*n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out, nil
}

// Decode reads a machine written by Encode/EncodeWithCert (or a legacy
// version 1/2 file), verifying the checksum, rebuilding the derived
// analyses (co-accessibility, dead state), and statically verifying the
// resource certificate when one is present — a certificate that does
// not match the machine it ships with refuses the whole file.
func Decode(r io.Reader) (*Machine, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	var gotMagic [8]byte
	if _, err := io.ReadFull(in, gotMagic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	var version int
	switch gotMagic {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	case magicV3:
		version = 3
	case magicV4:
		version = 4
	default:
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, gotMagic[:])
	}
	rd := func() (int64, error) {
		var v int64
		err := binary.Read(in, binary.LittleEndian, &v)
		return v, err
	}
	readString := func(limit int64) (string, error) {
		n, err := rd()
		if err != nil {
			return "", err
		}
		if n < 0 || n > limit {
			return "", fmt.Errorf("%w: string length %d", ErrFormat, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(in, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	ruleCount, err := rd()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if ruleCount <= 0 || ruleCount > 1<<20 {
		return nil, fmt.Errorf("%w: rule count %d", ErrFormat, ruleCount)
	}
	g := &tokdfa.Grammar{}
	for i := int64(0); i < ruleCount; i++ {
		name, err := readString(1 << 16)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		src, err := readString(1 << 24)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		expr, err := regex.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("%w: rule %d: %v", ErrFormat, i, err)
		}
		g.Rules = append(g.Rules, tokdfa.Rule{Name: name, Expr: expr})
	}

	nfaSize, err := rd()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	states, err := rd()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if states <= 0 || states > 1<<24 || nfaSize < 0 {
		return nil, fmt.Errorf("%w: %d states", ErrFormat, states)
	}

	// Table section. Version 3/4 files carry the byte-class compressed
	// layout natively (version 4 optionally the sparse representation);
	// dense v1/v2 tables are compressed on load so the rest of the engine
	// only ever sees the class-native DFA.
	var dfa *automata.DFA
	var sparse *automata.SparseDFA
	if version >= 3 {
		numClasses, err := rd()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		if numClasses < 1 || numClasses > 256 {
			return nil, fmt.Errorf("%w: %d byte classes", ErrFormat, numClasses)
		}
		var classOf [256]uint8
		if _, err := io.ReadFull(in, classOf[:]); err != nil {
			return nil, fmt.Errorf("%w: class map: %v", ErrFormat, err)
		}
		// Every map entry must name a real class, and every class must be
		// named by at least one byte — classes without a representative
		// would be uncompressible columns nothing can exercise, which only
		// a corrupted (or malicious) file produces.
		reps := make([]byte, numClasses)
		seen := make([]bool, numClasses)
		for b := 0; b < 256; b++ {
			c := int(classOf[b])
			if c >= int(numClasses) {
				return nil, fmt.Errorf("%w: class map entry %d = %d (have %d classes)", ErrFormat, b, c, numClasses)
			}
			if !seen[c] {
				seen[c] = true
				reps[c] = byte(b)
			}
		}
		for c, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("%w: byte class %d has no representative", ErrFormat, c)
			}
		}
		repr := int64(reprClassTable)
		if version >= 4 {
			if repr, err = rd(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
		}
		switch repr {
		case reprClassTable:
			trans, err := readInt32s(in, int(states)*int(numClasses))
			if err != nil {
				return nil, fmt.Errorf("%w: transition table: %v", ErrFormat, err)
			}
			accept, err := readInt32s(in, int(states))
			if err != nil {
				return nil, fmt.Errorf("%w: accept table: %v", ErrFormat, err)
			}
			if err := validateTables(trans, accept, states, ruleCount); err != nil {
				return nil, err
			}
			dfa = &automata.DFA{Trans: trans, ClassOf: classOf, Reps: reps, Accept: accept, Start: 0}
		case reprSparse:
			base, err := readInt32s(in, int(states))
			if err != nil {
				return nil, fmt.Errorf("%w: sparse base: %v", ErrFormat, err)
			}
			def, err := readInt32s(in, int(states))
			if err != nil {
				return nil, fmt.Errorf("%w: sparse default: %v", ErrFormat, err)
			}
			entryLen, err := rd()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			if entryLen < 0 || entryLen > states*int64(numClasses) {
				return nil, fmt.Errorf("%w: sparse entry array %d slots", ErrFormat, entryLen)
			}
			next, err := readInt32s(in, int(entryLen))
			if err != nil {
				return nil, fmt.Errorf("%w: sparse next: %v", ErrFormat, err)
			}
			check, err := readInt32s(in, int(entryLen))
			if err != nil {
				return nil, fmt.Errorf("%w: sparse check: %v", ErrFormat, err)
			}
			denseRows, err := rd()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrFormat, err)
			}
			if denseRows < 0 || denseRows > states {
				return nil, fmt.Errorf("%w: %d dense rows", ErrFormat, denseRows)
			}
			dense, err := readInt32s(in, int(denseRows)*int(numClasses))
			if err != nil {
				return nil, fmt.Errorf("%w: sparse dense spill: %v", ErrFormat, err)
			}
			accept, err := readInt32s(in, int(states))
			if err != nil {
				return nil, fmt.Errorf("%w: accept table: %v", ErrFormat, err)
			}
			if err := validateTables(nil, accept, states, ruleCount); err != nil {
				return nil, err
			}
			sparse = &automata.SparseDFA{
				Base: base, Next: next, Check: check, Default: def, Dense: dense,
				ClassOf: classOf, Reps: reps, Accept: accept, Start: 0,
			}
			// The untrusted structural checks: every base/check/default/
			// next/dense value must stay inside the decoded machine.
			if err := sparse.Validate(); err != nil {
				return nil, fmt.Errorf("%w: sparse table: %v", ErrFormat, err)
			}
			dfa = &automata.DFA{ClassOf: classOf, Reps: reps, Accept: accept, Start: 0}
		default:
			return nil, fmt.Errorf("%w: table representation tag %d", ErrFormat, repr)
		}
	} else {
		trans, err := readInt32s(in, int(states)*256)
		if err != nil {
			return nil, fmt.Errorf("%w: transition table: %v", ErrFormat, err)
		}
		accept, err := readInt32s(in, int(states))
		if err != nil {
			return nil, fmt.Errorf("%w: accept table: %v", ErrFormat, err)
		}
		if err := validateTables(trans, accept, states, ruleCount); err != nil {
			return nil, err
		}
		dfa = automata.FromDense(trans, accept, 0)
	}

	var c *cert.Certificate
	if version >= 2 {
		present, err := rd()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
		switch present {
		case 0:
		case 1:
			c, err = decodeCert(rd, readString, version)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: certificate flag %d", ErrFormat, present)
		}
	}

	tnd, err := rd()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}

	sum := crc.Sum32()
	var gotSum uint32
	if err := binary.Read(br, binary.LittleEndian, &gotSum); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if gotSum != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFormat)
	}

	var coacc []bool
	if sparse != nil {
		coacc = sparse.CoAccessible()
	} else {
		coacc = dfa.CoAccessible()
	}
	dead := -1
	for q := 0; q < dfa.NumStates(); q++ {
		if !coacc[q] {
			dead = q
			break
		}
	}
	out := &Machine{
		Machine: &tokdfa.Machine{
			Grammar: g,
			DFA:     dfa,
			Sparse:  sparse,
			NFASize: int(nfaSize),
			CoAcc:   coacc,
			Dead:    dead,
		},
		MaxTND:  int(tnd),
		Cert:    c,
		Version: version,
	}
	if tnd < 0 {
		out.MaxTND = analysis.Infinite
	}
	if c != nil {
		// The checksum only proves the file arrived as written; the
		// certificate must additionally *verify* — its replayable claims
		// must hold on the machine it ships with. A mismatch means the
		// claims were tampered with (or the producer was broken), and a
		// file whose cost claims cannot be trusted is refused whole.
		if err := c.VerifyStatic(out.Machine, out.MaxTND); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrFormat, err)
		}
	}
	return out, nil
}

// validateTables rejects transition targets and accept labels outside
// the decoded machine, whichever layout they arrived in.
func validateTables(trans, accept []int32, states, ruleCount int64) error {
	for _, t := range trans {
		if t < 0 || int64(t) >= states {
			return fmt.Errorf("%w: transition target %d", ErrFormat, t)
		}
	}
	for _, a := range accept {
		if a < -1 || int64(a) >= ruleCount {
			return fmt.Errorf("%w: accept label %d", ErrFormat, a)
		}
	}
	return nil
}

// decodeCert reads the certificate section (bounds on every
// variable-length field keep a corrupted header from committing
// memory). Version 3 files carry two extra integer fields; version 4
// files add the sparse table bytes.
func decodeCert(rd func() (int64, error), readString func(int64) (string, error), version int) (*cert.Certificate, error) {
	hash, err := readString(128)
	if err != nil {
		return nil, fmt.Errorf("%w: certificate hash: %v", ErrFormat, err)
	}
	numFields := 8
	switch {
	case version >= 4:
		numFields = 11
	case version >= 3:
		numFields = 10
	}
	fields := make([]int64, numFields)
	for i := range fields {
		if fields[i], err = rd(); err != nil {
			return nil, fmt.Errorf("%w: certificate: %v", ErrFormat, err)
		}
	}
	for i, v := range fields {
		if v < 0 || v > 1<<40 {
			return nil, fmt.Errorf("%w: certificate field %d = %d", ErrFormat, i, v)
		}
	}
	mode, err := readString(64)
	if err != nil {
		return nil, fmt.Errorf("%w: certificate mode: %v", ErrFormat, err)
	}
	u, err := readString(1 << 20)
	if err != nil {
		return nil, fmt.Errorf("%w: certificate witness: %v", ErrFormat, err)
	}
	v, err := readString(1 << 20)
	if err != nil {
		return nil, fmt.Errorf("%w: certificate witness: %v", ErrFormat, err)
	}
	c := &cert.Certificate{
		GrammarHash:      hash,
		DelayK:           int(fields[0]),
		DichotomyBound:   int(fields[1]),
		RingBytes:        int(fields[2]),
		CarryRetainedCap: int(fields[3]),
		TableBytes:       int(fields[4]),
		AccelStates:      int(fields[5]),
		AccelSlots:       int(fields[6]),
		ParallelReworkX:  int(fields[7]),
		EngineMode:       mode,
	}
	if version >= 3 {
		c.NumClasses = int(fields[8])
		c.DenseTableBytes = int(fields[9])
	}
	if version >= 4 {
		c.SparseTableBytes = int(fields[10])
	}
	if u != "" {
		c.WitnessU = []byte(u)
	}
	if v != "" {
		c.WitnessV = []byte(v)
	}
	return c, nil
}
