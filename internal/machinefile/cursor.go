package machinefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"streamtok/internal/obs"
)

// Cursor blobs: the wire format of suspended streams (resumable-stream
// checkpoints). A cursor serializes the engine-independent O(K) live
// state exported by internal/core — the token-boundary offset, the
// pending bytes (carry ++ delay ring), the tokenization DFA
// state, and the stream's raw observability counters — bound to the
// grammar it was suspended under, so a cursor can only resume on a
// tokenizer whose certificate carries the same grammar hash.
//
// The format follows the machinefile discipline: versioned magic,
// little-endian integers, length-prefixed strings with explicit
// bounds, and a trailing CRC32-IEEE of everything before it. Layout:
//
//	magic "STOKCUR1" | grammarHash | engineMode | boundary | qa |
//	pendingLen | pending[pendingLen] |
//	bytesIn | chunks | accelAttempts | accelSkippedBytes |
//	accelBackoffs | fusedFallbacks | carryMax | ringMax |
//	ruleCount | tokensByRule[ruleCount] | crc32
//
// The counters are the *underived* block (TokensOut and the
// steady-state EmitLatency mass are recomputed from TokensByRule at
// snapshot time), and only the portable subset is carried: the BPE
// piece cache and its hit counters are deliberately excluded — a
// resumed stream restarts with a cold cache and re-earns its hits.
//
// A cursor is bounded but not small: the pending payload is K ring
// bytes plus the carried prefix of the current token, so a stream
// suspended mid-way through a pathologically long token carries that
// prefix. maxCursorPending caps what Decode will accept.

var cursorMagic = [8]byte{'S', 'T', 'O', 'K', 'C', 'U', 'R', '1'}

// maxCursorPending bounds the pending payload DecodeCursor accepts
// (and EncodeCursor refuses to produce): far above any steady-state
// checkpoint (K + retained carry), low enough that a forged header
// cannot commit unbounded memory.
const maxCursorPending = 1 << 28

// maxCursorRules mirrors the machinefile rule-count bound.
const maxCursorRules = 1 << 20

// Cursor is the decoded form of a suspended-stream blob.
type Cursor struct {
	// GrammarHash is the certificate grammar hash the stream was
	// suspended under; resuming verifies it against the target
	// tokenizer's certificate and refuses a mismatch.
	GrammarHash string
	// EngineMode names the engine mode that produced the cursor (e.g.
	// "fused-k3", "split-general", or "bpe+fused-k2" for a vocabulary;
	// cursors of retired modes such as "fused-general" still load).
	// Cursors are portable across modes of the same source; the QA
	// cross-check is enforced only when the resuming mode matches.
	EngineMode string
	// Boundary is the stream offset of the pending token's first byte.
	Boundary int64
	// QA is the tokenization DFA state at suspension.
	QA int64
	// Pending is the suspended stream's unresolved bytes in stream
	// order (carry ++ delay ring).
	Pending []byte
	// Counters is the stream's raw observability block; only the
	// portable subset listed in the format comment round-trips.
	Counters obs.Counters
}

// EncodeCursor serializes c into a fresh blob.
func EncodeCursor(c *Cursor) ([]byte, error) {
	if len(c.GrammarHash) > 128 || len(c.EngineMode) > 64 {
		return nil, fmt.Errorf("machinefile: cursor identity fields too long")
	}
	if c.Boundary < 0 || c.QA < 0 {
		return nil, fmt.Errorf("machinefile: negative cursor field")
	}
	if len(c.Pending) > maxCursorPending {
		return nil, fmt.Errorf("machinefile: cursor pending payload %d bytes exceeds the format bound", len(c.Pending))
	}
	if len(c.Counters.TokensByRule) > maxCursorRules {
		return nil, fmt.Errorf("machinefile: cursor rule count %d exceeds the format bound", len(c.Counters.TokensByRule))
	}
	var buf bytes.Buffer
	crc := crc32.NewIEEE()
	e := &encoder{out: io.MultiWriter(&buf, crc)}
	if _, err := e.out.Write(cursorMagic[:]); err != nil {
		return nil, err
	}
	e.bytes([]byte(c.GrammarHash))
	e.bytes([]byte(c.EngineMode))
	e.ints(c.Boundary, c.QA)
	e.bytes(c.Pending)
	cnt := &c.Counters
	e.ints(int64(cnt.BytesIn), int64(cnt.Chunks),
		int64(cnt.AccelAttempts), int64(cnt.AccelSkippedBytes),
		int64(cnt.AccelBackoffs), int64(cnt.FusedFallbacks),
		int64(cnt.CarryMax), int64(cnt.RingMax))
	e.ints(int64(len(cnt.TokensByRule)))
	for _, n := range cnt.TokensByRule {
		e.ints(int64(n))
	}
	if e.err != nil {
		return nil, e.err
	}
	if err := binary.Write(&buf, binary.LittleEndian, crc.Sum32()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCursor parses and validates a cursor blob. Every malformation
// — bad magic, truncation, out-of-bounds lengths, negative fields, a
// checksum mismatch — is reported wrapping ErrFormat; the caller
// additionally verifies the grammar-hash binding and replays the
// pending bytes before trusting the cursor.
func DecodeCursor(data []byte) (*Cursor, error) {
	body := data
	if len(body) < len(cursorMagic)+4 {
		return nil, fmt.Errorf("%w: cursor too short", ErrFormat)
	}
	// The trailing checksum covers everything before it.
	sumOff := len(body) - 4
	wantSum := binary.LittleEndian.Uint32(body[sumOff:])
	if crc32.ChecksumIEEE(body[:sumOff]) != wantSum {
		return nil, fmt.Errorf("%w: cursor checksum mismatch", ErrFormat)
	}
	r := bytes.NewReader(body[:sumOff])

	var gotMagic [8]byte
	if _, err := io.ReadFull(r, gotMagic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if gotMagic != cursorMagic {
		return nil, fmt.Errorf("%w: bad cursor magic %q", ErrFormat, gotMagic[:])
	}
	rd := func() (int64, error) {
		var v int64
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	readBytes := func(limit int64) ([]byte, error) {
		n, err := rd()
		if err != nil {
			return nil, err
		}
		// Bounding n by the bytes actually present keeps a forged
		// length from committing memory the blob never carried.
		if n < 0 || n > limit || n > int64(r.Len()) {
			return nil, fmt.Errorf("length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}

	c := &Cursor{}
	hash, err := readBytes(128)
	if err != nil {
		return nil, fmt.Errorf("%w: cursor hash: %v", ErrFormat, err)
	}
	c.GrammarHash = string(hash)
	mode, err := readBytes(64)
	if err != nil {
		return nil, fmt.Errorf("%w: cursor mode: %v", ErrFormat, err)
	}
	c.EngineMode = string(mode)
	if c.Boundary, err = rd(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if c.QA, err = rd(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if c.Boundary < 0 || c.QA < 0 || c.QA > 1<<40 {
		return nil, fmt.Errorf("%w: cursor position fields out of range", ErrFormat)
	}
	if c.Pending, err = readBytes(maxCursorPending); err != nil {
		return nil, fmt.Errorf("%w: cursor pending: %v", ErrFormat, err)
	}
	fields := make([]int64, 8)
	for i := range fields {
		if fields[i], err = rd(); err != nil {
			return nil, fmt.Errorf("%w: cursor counters: %v", ErrFormat, err)
		}
		if fields[i] < 0 {
			return nil, fmt.Errorf("%w: negative cursor counter %d", ErrFormat, i)
		}
	}
	cnt := &c.Counters
	cnt.Streams = 1
	cnt.BytesIn = uint64(fields[0])
	cnt.Chunks = uint64(fields[1])
	cnt.AccelAttempts = uint64(fields[2])
	cnt.AccelSkippedBytes = uint64(fields[3])
	cnt.AccelBackoffs = uint64(fields[4])
	cnt.FusedFallbacks = uint64(fields[5])
	cnt.CarryMax = uint64(fields[6])
	cnt.RingMax = uint64(fields[7])
	ruleCount, err := rd()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if ruleCount < 0 || ruleCount > maxCursorRules || ruleCount*8 > int64(r.Len()) {
		return nil, fmt.Errorf("%w: cursor rule count %d", ErrFormat, ruleCount)
	}
	cnt.TokensByRule = make([]uint64, ruleCount)
	for i := range cnt.TokensByRule {
		v, err := rd()
		if err != nil {
			return nil, fmt.Errorf("%w: cursor rule counters: %v", ErrFormat, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("%w: negative rule counter", ErrFormat)
		}
		cnt.TokensByRule[i] = uint64(v)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in cursor", ErrFormat, r.Len())
	}
	return c, nil
}
