package server

import (
	"bufio"
	"encoding/binary"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"streamtok/internal/token"
)

// This file holds the /tokenize wire encoders. Both write straight into
// the spare capacity of a pooled bufio.Writer (AvailableBuffer, then
// Write of that same slice, which bufio copies onto itself), so a token
// costs no intermediate line buffer and no allocation.

// frame is one response's pooled output state: the buffered writer and
// the scratch the summary line is assembled in.
type frame struct {
	bw      *bufio.Writer
	flusher http.Flusher
	scratch []byte
}

// frameBufSize is the response buffer; one chunk's tokens usually fit.
const frameBufSize = 32 << 10

// maxPooledScratch caps the scratch a frame keeps in the pool: a summary
// line with a large cursor grows it once, and that must not stay pinned.
const maxPooledScratch = 64 << 10

func newFrame() any {
	return &frame{bw: bufio.NewWriterSize(nil, frameBufSize), scratch: make([]byte, 0, 256)}
}

// acquireFrame takes a pooled frame writing to w.
func (s *Server) acquireFrame(w http.ResponseWriter) *frame {
	f := s.frames.Get().(*frame)
	f.bw.Reset(w)
	f.flusher, _ = w.(http.Flusher)
	return f
}

// releaseFrame returns f to the pool, dropping its reference to the
// response.
func (s *Server) releaseFrame(f *frame) {
	f.bw.Reset(nil)
	f.flusher = nil
	if cap(f.scratch) > maxPooledScratch {
		f.scratch = make([]byte, 0, 256)
	}
	s.frames.Put(f)
}

// flush pushes the buffered bytes and the response itself to the client.
func (f *frame) flush() {
	f.bw.Flush()
	if f.flusher != nil {
		f.flusher.Flush()
	}
}

// lineBuf returns the writer's spare capacity, flushed first when a line
// of up to n bytes would not fit in it.
func (f *frame) lineBuf(n int) []byte {
	if f.bw.Available() < n {
		f.bw.Flush()
	}
	return f.bw.AvailableBuffer()
}

// Fixed NDJSON token-line pieces. A line is
//
//	{"start":S,"end":E,"rule":R[,"name":"N"][,"text":"T"]}
//
// where the rule/name tail is precomputed per rule (Entry.ruleTails).
const (
	keyStart = `{"start":`
	keyEnd   = `,"end":`
	keyRule  = `,"rule":`
	keyText  = `,"text":"`
	lineEnd  = "}\n"
	textEnd  = "\"}\n"
	// maxDec is the widest decimal int, sign included.
	maxDec = 20
)

// ndjsonWriter frames tokens as NDJSON lines; token is the stream's
// EmitFunc.
type ndjsonWriter struct {
	f         *frame
	tails     [][]byte // per-rule `,"rule":N,"name":"…"`; nil for vocabularies
	maxHead   int      // longest line before the text, with room for its close
	withText  bool     // ?text=1: lines carry the token text
	countOnly bool     // ?count=1: count tokens, write no lines
	off       odometer

	tokens, tokenBytes uint64
}

func newNDJSONWriter(f *frame, ent *Entry, withText, countOnly bool) *ndjsonWriter {
	tail := max(ent.tailMax, len(keyRule)+maxDec)
	w := &ndjsonWriter{
		f:         f,
		tails:     ent.ruleTails,
		maxHead:   len(keyStart) + maxDec + len(keyEnd) + maxDec + tail + len(keyText) + len(textEnd),
		withText:  withText,
		countOnly: countOnly,
	}
	w.off.set(0)
	return w
}

// token counts one token and writes its line.
func (w *ndjsonWriter) token(tk token.Token, text []byte) {
	w.tokens++
	w.tokenBytes += uint64(tk.Len())
	if w.countOnly {
		return
	}
	bw := w.f.bw
	b := w.appendHead(w.f.lineBuf(w.maxHead), tk)
	if !w.withText {
		bw.Write(append(b, lineEnd...))
		return
	}
	b = append(b, keyText...)
	b, n := escapeJSON(b, text)
	if n == len(text) && cap(b)-len(b) >= len(textEnd) {
		bw.Write(append(b, textEnd...))
		return
	}
	// The escaped text outgrows the buffer: write it in buffer-sized
	// pieces rather than assembling it anywhere.
	bw.Write(b)
	writeJSON(bw, text[n:])
	bw.WriteString(textEnd)
}

// appendHead appends a token line up to its rule tail.
func (w *ndjsonWriter) appendHead(b []byte, tk token.Token) []byte {
	if tk.Start != w.off.pos {
		w.off.set(tk.Start)
	}
	b = append(b, keyStart...)
	b = append(b, w.off.digits()...)
	w.off.add(tk.End - tk.Start)
	b = append(b, keyEnd...)
	b = append(b, w.off.digits()...)
	if uint(tk.Rule) < uint(len(w.tails)) {
		return append(b, w.tails[tk.Rule]...)
	}
	b = append(b, keyRule...)
	return strconv.AppendInt(b, int64(tk.Rule), 10)
}

// ruleTail renders a rule's precomputed `,"rule":N,"name":"…"` tail.
func ruleTail(rule int, name string) []byte {
	b := strconv.AppendInt([]byte(keyRule), int64(rule), 10)
	b = append(b, `,"name":`...)
	return appendJSONText(b, []byte(name))
}

// recordSize is one binary token record: start int64, end int64, rule
// int32, reserved int32, little-endian.
const recordSize = 24

// binWriter frames token batches as binary records.
type binWriter struct {
	bw     *bufio.Writer
	tokens uint64
}

// batch is the BatchFunc of ?format=bin streams: it writes as many whole
// records as fit into the buffer's spare capacity per pass.
func (w *binWriter) batch(toks []token.Token) {
	w.tokens += uint64(len(toks))
	for len(toks) > 0 {
		b := w.bw.AvailableBuffer()
		n := min(len(toks), cap(b)/recordSize)
		if n == 0 {
			if w.bw.Flush() != nil {
				return
			}
			continue
		}
		for _, tk := range toks[:n] {
			b = binary.LittleEndian.AppendUint64(b, uint64(tk.Start))
			b = binary.LittleEndian.AppendUint64(b, uint64(tk.End))
			b = binary.LittleEndian.AppendUint32(b, uint32(tk.Rule))
			b = binary.LittleEndian.AppendUint32(b, 0)
		}
		w.bw.Write(b)
		toks = toks[n:]
	}
}

// odometer holds the decimal digits of the stream offset the previous
// token ended at, right-aligned in d[i:]. Tokens are contiguous, so the
// next token's start reuses those digits, and its end is the start plus
// a short length: a few digit carries, not a full conversion.
type odometer struct {
	pos int
	i   int
	d   [maxDec]byte
}

func (o *odometer) digits() []byte { return o.d[o.i:] }

// set formats v from scratch (a non-contiguous start).
func (o *odometer) set(v int) {
	o.pos = v
	b := strconv.AppendUint(o.d[:0], uint64(v), 10)
	o.i = len(o.d) - len(b)
	copy(o.d[o.i:], b)
}

// add advances the digits by delta ≥ 0, carrying as far as needed.
func (o *odometer) add(delta int) {
	o.pos += delta
	for i, carry := len(o.d)-1, delta; carry > 0; i-- {
		if i < o.i {
			o.i = i
			o.d[i] = '0'
		}
		v := int(o.d[i]-'0') + carry%10
		carry /= 10
		if v >= 10 {
			v -= 10
			carry++
		}
		o.d[i] = byte('0' + v)
	}
}

// jsonSafe marks the bytes a JSON string carries as they are: printable
// ASCII other than '"' and '\\', and DEL.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// maxEscape is the most bytes one input byte or rune escapes to (\u00XX).
const maxEscape = 6

// escapeJSON escapes src as JSON string content into the spare capacity
// of dst without growing it, and returns the extended dst and how many
// bytes of src it consumed. Runs of safe bytes are copied in bulk;
// control characters are escaped, and invalid UTF-8 becomes U+FFFD
// (token text is raw stream bytes, and the NDJSON framing must stay valid
// regardless). Given maxEscape spare bytes it always makes progress.
func escapeJSON(dst, src []byte) ([]byte, int) {
	i := 0
	for i < len(src) {
		j, end := i, min(len(src), i+cap(dst)-len(dst))
		for j < end && jsonSafe[src[j]] {
			j++
		}
		dst = append(dst, src[i:j]...)
		i = j
		if i == len(src) || cap(dst)-len(dst) < maxEscape {
			break
		}
		c := src[i]
		if c < utf8.RuneSelf {
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // the other control characters
				dst = append(dst, '\\', 'u', '0', '0', "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(src[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, "\uFFFD"...)
		} else {
			dst = append(dst, src[i:i+size]...)
		}
		i += size
	}
	return dst, i
}

// appendJSONText appends src as a JSON string literal, escaped as
// escapeJSON does.
func appendJSONText(dst, src []byte) []byte {
	dst = append(dst, '"')
	for {
		dst = slices.Grow(dst, len(src)+maxEscape)
		var n int
		dst, n = escapeJSON(dst, src)
		if src = src[n:]; len(src) == 0 {
			return append(dst, '"')
		}
	}
}

// writeJSON escapes src into bw in pieces that fit its buffer.
func writeJSON(bw *bufio.Writer, src []byte) {
	for len(src) > 0 {
		b := bw.AvailableBuffer()
		if cap(b) < maxEscape {
			if bw.Flush() != nil {
				return
			}
			continue
		}
		var n int
		b, n = escapeJSON(b, src)
		bw.Write(b)
		src = src[n:]
	}
}
