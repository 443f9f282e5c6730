package main

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

// expect is the correct output for one input, computed in process before
// any timing starts: the digest of its (start, end, rule) token stream,
// the token count, and the offset of the first untokenized byte.
type expect struct {
	Digest uint64 `json:"digest"`
	Tokens int    `json:"tokens"`
	Rest   int    `json:"rest"`
}

// digest is an order-sensitive FNV-1a hash of a token stream. It is fed
// token by token so a stream split across requests (a resume pair)
// digests the same as the single-shot stream.
type digest struct {
	h uint64
	n int
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func newDigest() digest { return digest{h: fnvOffset} }

func (d *digest) add(start, end, rule int) {
	d.h = (d.h ^ uint64(start)) * fnvPrime
	d.h = (d.h ^ uint64(end)) * fnvPrime
	d.h = (d.h ^ uint64(rule)) * fnvPrime
	d.n++
}

// verify compares a finished stream against its expectation and returns
// "" when they agree, else what differed.
func (d *digest) verify(want expect, rest int) string {
	switch {
	case d.n != want.Tokens:
		return fmt.Sprintf("got %d tokens, want %d", d.n, want.Tokens)
	case d.h != want.Digest:
		return fmt.Sprintf("token digest %016x, want %016x", d.h, want.Digest)
	case rest != want.Rest:
		return fmt.Sprintf("rest %d, want %d", rest, want.Rest)
	}
	return ""
}

// appendTokenLine renders a token the way streamtokd's NDJSON framing
// does (without the trailing newline).
func appendTokenLine(dst []byte, start, end, rule int, stream []byte, names [][]byte, withText bool) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, int64(start), 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, int64(end), 10)
	dst = append(dst, `,"rule":`...)
	dst = strconv.AppendInt(dst, int64(rule), 10)
	if rule >= 0 && rule < len(names) {
		dst = append(dst, `,"name":`...)
		dst = append(dst, names[rule]...)
	}
	if withText {
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, stream[start:end])
	}
	return append(dst, '}')
}

// appendJSONString quotes s as streamtokd does: JSON escapes for quotes,
// backslashes and control bytes, and U+FFFD for each invalid UTF-8 byte.
func appendJSONString(dst, s []byte) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				dst = append(dst, '\\', '"')
			case c == '\\':
				dst = append(dst, '\\', '\\')
			case c == '\n':
				dst = append(dst, '\\', 'n')
			case c == '\r':
				dst = append(dst, '\\', 'r')
			case c == '\t':
				dst = append(dst, '\\', 't')
			case c < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			default:
				dst = append(dst, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, "�"...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}
