package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// A correct streamtokd response is fully determined by its input: NDJSON
// token lines and binary records are rendered from the token stream. The
// benchmark renders them once before timing and keeps their CRC-32C, so
// the load generator checks every response byte by hashing what arrives
// instead of parsing it, which keeps its CPU share small. The NDJSON
// summary line and the binary trailers carry counts, checked field by
// field.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wire is the expected response of one item, per framing.
type wire struct {
	NDJSON     uint32 `json:"ndjson"` // CRC-32C of every token line, newlines included
	Bin        uint32 `json:"bin"`    // CRC-32C of every 24-byte record
	TokenBytes int64  `json:"token_bytes"`
}

// renderWire computes an item's wire expectation from its token stream.
// NDJSON lines carry token text when text is set and rule names from
// names.
func renderWire(toks []tokenRec, stream []byte, names [][]byte, text bool) wire {
	var w wire
	var line []byte
	var rec [24]byte
	for _, tk := range toks {
		line = appendTokenLine(line[:0], tk.start, tk.end, tk.rule, stream, names, text)
		line = append(line, '\n')
		w.NDJSON = crc32.Update(w.NDJSON, castagnoli, line)
		putRecord(rec[:], tk.start, tk.end, tk.rule)
		w.Bin = crc32.Update(w.Bin, castagnoli, rec[:])
		w.TokenBytes += int64(tk.end - tk.start)
	}
	return w
}

type tokenRec struct{ start, end, rule int }

// putRecord renders a token the way streamtokd's binary framing does:
// start, end as int64, rule as int32, then 4 reserved zero bytes, all
// little-endian.
func putRecord(rec []byte, start, end, rule int) {
	for i := 0; i < 8; i++ {
		rec[i] = byte(uint64(start) >> (8 * i))
		rec[8+i] = byte(uint64(end) >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		rec[16+i] = byte(uint32(rule) >> (8 * i))
		rec[20+i] = 0
	}
}

// call is one /tokenize request.
type call struct {
	query string // URL query without a cursor (source, format, text, hold)
	body  []byte
	bin   bool
}

// stream accumulates what the responses of one op delivered: a resume
// pair's two responses continue the same hash and count.
type stream struct {
	crc     uint32
	records int
}

// reply is what one response delivered besides its records. For binary
// responses the trailers are mapped onto the NDJSON summary fields.
type reply struct {
	first   time.Time // when the first body bytes (token records) arrived; zero if none did
	end     time.Time // when the summary line or the trailers arrived
	records int
	sum     ndjsonSummary
}

// ndjsonSummary is the final line of an NDJSON /tokenize response.
type ndjsonSummary struct {
	Done       bool   `json:"done"`
	Error      string `json:"error"`
	Tokens     int    `json:"tokens"`
	TokenBytes int64  `json:"token_bytes"`
	BytesIn    int64  `json:"bytes_in"`
	Rest       int    `json:"rest"`
	Offset     int64  `json:"offset"`
	Cursor     string `json:"cursor"`
	Complete   bool   `json:"complete"`
}

// newClient returns an HTTP client that holds at most one connection, so
// a load generator with n clients opens at most n connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends c (resuming cursor when non-empty) and reads the whole
// response into st. buf is the caller's read buffer. Transport
// failures, non-200 statuses and malformed framing are errors; whether
// the content is right is decided by the caller from st and the summary.
func post(hc *http.Client, base string, c *call, cursor string, st *stream, buf []byte) (reply, error) {
	u := base + "/tokenize?" + c.query
	if cursor != "" {
		u += "&cursor=" + url.QueryEscape(cursor)
	}
	var rp reply
	resp, err := hc.Post(u, "application/octet-stream", bytes.NewReader(c.body))
	if err != nil {
		return rp, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rp, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if c.bin {
		err = readBinary(resp, st, &rp, buf)
	} else {
		err = readNDJSON(resp.Body, st, &rp, buf)
	}
	rp.end = time.Now()
	return rp, err
}

func readBinary(resp *http.Response, st *stream, rp *reply, buf []byte) error {
	n := 0
	for {
		k, err := resp.Body.Read(buf)
		if k > 0 {
			if rp.first.IsZero() {
				rp.first = time.Now()
			}
			st.crc = crc32.Update(st.crc, castagnoli, buf[:k])
			n += k
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading records: %w", err)
		}
	}
	if n%24 != 0 {
		return fmt.Errorf("binary body of %d bytes is not whole 24-byte records", n)
	}
	records := n / 24
	st.records += records
	rp.records = records
	for _, k := range []string{"X-Streamtok-Tokens", "X-Streamtok-Rest", "X-Streamtok-Error", "X-Streamtok-Cursor"} {
		if _, ok := resp.Trailer[k]; !ok {
			return fmt.Errorf("missing trailer %s", k)
		}
	}
	tokens, err := strconv.Atoi(resp.Trailer.Get("X-Streamtok-Tokens"))
	if err != nil {
		return fmt.Errorf("bad X-Streamtok-Tokens trailer: %w", err)
	}
	rest, err := strconv.Atoi(resp.Trailer.Get("X-Streamtok-Rest"))
	if err != nil {
		return fmt.Errorf("bad X-Streamtok-Rest trailer: %w", err)
	}
	rp.sum = ndjsonSummary{
		Tokens: tokens,
		Rest:   rest,
		Error:  resp.Trailer.Get("X-Streamtok-Error"),
		Cursor: resp.Trailer.Get("X-Streamtok-Cursor"),
	}
	rp.sum.Done = rp.sum.Error == ""
	if tokens != records {
		return fmt.Errorf("trailer says %d tokens, %d records arrived", tokens, records)
	}
	return nil
}

// readNDJSON hashes every line but the last, which must be the summary.
// It holds back the last complete line of what has arrived until the
// next read shows it was not the last.
func readNDJSON(body io.Reader, st *stream, rp *reply, buf []byte) error {
	held := 0 // bytes at the front of buf not yet hashed
	for {
		if held == len(buf) {
			return fmt.Errorf("NDJSON line longer than %d bytes", len(buf))
		}
		k, err := body.Read(buf[held:])
		if k > 0 && rp.first.IsZero() {
			rp.first = time.Now()
		}
		data := buf[:held+k]
		if last := bytes.LastIndexByte(data, '\n'); last >= 0 {
			if prev := bytes.LastIndexByte(data[:last], '\n'); prev >= 0 {
				done := data[:prev+1]
				st.crc = crc32.Update(st.crc, castagnoli, done)
				n := bytes.Count(done, []byte{'\n'})
				st.records += n
				rp.records += n
				held = copy(buf, data[prev+1:])
			} else {
				held = len(data)
			}
		} else {
			held = len(data)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading NDJSON: %w", err)
		}
	}
	line := buf[:held]
	if len(line) == 0 || line[len(line)-1] != '\n' || bytes.Count(line, []byte{'\n'}) != 1 {
		return fmt.Errorf("NDJSON stream does not end with one summary line: %.120q", line)
	}
	if !bytes.HasPrefix(line, []byte(`{"done"`)) && !bytes.HasPrefix(line, []byte(`{"error"`)) {
		return fmt.Errorf("last NDJSON line is not a summary: %.120q", line)
	}
	if err := json.Unmarshal(line, &rp.sum); err != nil {
		return fmt.Errorf("summary line %.120q: %w", line, err)
	}
	return nil
}
