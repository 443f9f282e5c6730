package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"streamtok/internal/core"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

func newTok(t *testing.T, rules ...string) *core.Tokenizer {
	t.Helper()
	m := tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{})
	tok, _, err := core.New(m, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// errReader fails after yielding a prefix.
type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadErrorPropagates: io errors other than EOF surface to the
// caller.
func TestReadErrorPropagates(t *testing.T) {
	tok := newTok(t, `[0-9]+`, `[ ]+`)
	boom := errors.New("boom")
	_, err := tok.Tokenize(&errReader{data: []byte("12 34"), err: boom}, 2, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

// TestEarlyStopDrainsReader: when the remainder is untokenizable, the
// driver reports the stop offset without consuming the rest of the
// stream.
func TestEarlyStopDrainsReader(t *testing.T) {
	tok := newTok(t, `[0-9]+`, `[ ]+`)
	var got []token.Token
	input := "12 x 34"
	rest, err := tok.Tokenize(strings.NewReader(input), 2, func(tk token.Token, _ []byte) {
		got = append(got, tk)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rest != 3 {
		t.Errorf("rest = %d, want 3", rest)
	}
	if len(got) != 2 { // "12" and " "
		t.Errorf("tokens = %v", got)
	}
}

// TestReaderYieldingOneByteAtATime exercises refill paths.
func TestReaderYieldingOneByteAtATime(t *testing.T) {
	tok := newTok(t, `[0-9]+(\.[0-9]+)?`, `[ ]+`)
	input := []byte("3.25 777 1.")
	r := iotest{data: input}
	var texts []string
	rest, err := tok.Tokenize(&r, 64, func(_ token.Token, text []byte) {
		texts = append(texts, string(text))
	})
	if err != nil {
		t.Fatal(err)
	}
	// "1." is not a token: "1" is, then "." fails (Definition 1).
	want := []string{"3.25", " ", "777", " ", "1"}
	if rest != 10 || len(texts) != len(want) {
		t.Fatalf("rest %d texts %v", rest, texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

// iotest returns one byte per Read call.
type iotest struct {
	data []byte
	off  int
}

func (r *iotest) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.off]
	r.off++
	return 1, nil
}

// TestLongTokenAcrossManyChunks: a token far larger than the chunk size
// must surface with complete text via the carry buffer.
func TestLongTokenAcrossManyChunks(t *testing.T) {
	tok := newTok(t, `[0-9]+`, `[ ]+`)
	digits := bytes.Repeat([]byte("7"), 10000)
	input := append(append([]byte{}, digits...), ' ')
	var texts [][]byte
	s := tok.NewStreamer()
	emit := func(_ token.Token, text []byte) {
		texts = append(texts, append([]byte(nil), text...))
	}
	for i := 0; i < len(input); i += 64 {
		end := i + 64
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[i:end], emit)
	}
	s.Close(emit)
	if len(texts) != 2 || !bytes.Equal(texts[0], digits) || string(texts[1]) != " " {
		t.Fatalf("got %d tokens, first len %d", len(texts), len(texts[0]))
	}
}

// TestFeedAfterStopIsIgnored: once stopped, Feed and Close are inert.
func TestFeedAfterStopIsIgnored(t *testing.T) {
	tok := newTok(t, `a`)
	s := tok.NewStreamer()
	count := 0
	emit := func(token.Token, []byte) { count++ }
	s.Feed([]byte("aax"), emit)
	if !s.Stopped() || s.Rest() != 2 {
		t.Fatalf("stopped=%v rest=%d", s.Stopped(), s.Rest())
	}
	before := count
	s.Feed([]byte("aaa"), emit)
	if count != before {
		t.Error("Feed after stop emitted tokens")
	}
	if got := s.Close(emit); got != 2 {
		t.Errorf("Close = %d, want 2", got)
	}
}

// TestZeroCopyAliasing documents the emit contract: text aliases the
// caller's chunk and must be copied if retained.
func TestZeroCopyAliasing(t *testing.T) {
	tok := newTok(t, `[a-z]+`, `[ ]`)
	chunk := []byte("abc ")
	var captured []byte
	s := tok.NewStreamer()
	s.Feed(chunk, func(_ token.Token, text []byte) {
		if captured == nil {
			captured = text // intentionally retained without copying
		}
	})
	s.Close(nil)
	chunk[0] = 'Z'
	if captured[0] != 'Z' {
		t.Skip("emit copied; aliasing not observable (still correct)")
	}
}

// scripted is a reader whose Reads return the given (data, err) pairs in
// order, then io.EOF; reads counts the calls.
type scripted struct {
	steps []scriptedRead
	reads int
}

type scriptedRead struct {
	data string
	err  error
}

func (r *scripted) Read(p []byte) (int, error) {
	r.reads++
	if len(r.steps) == 0 {
		return 0, io.EOF
	}
	st := r.steps[0]
	r.steps = r.steps[1:]
	return copy(p, st.data), st.err
}

// TestDriveStopOrder pins the one read loop's order — ctx check, read,
// step, Stopped, then the read's EOF or error — through a direct Drive
// call and through TokenizeChunks. Every rule of the grammar is one byte
// long, so the stream dies exactly at '!' (offset 3).
func TestDriveStopOrder(t *testing.T) {
	tok := newTok(t, `[a-z]`, `[ ]`)
	boom := errors.New("boom")
	stepErr := errors.New("step")
	cases := []struct {
		name      string
		reads     []scriptedRead
		cancelled bool
		stepErr   error // Drive only: TokenizeChunks's step never fails
		wantErr   error
		wantRest  int
		wantReads int
	}{
		{name: "step error and stop in one chunk", reads: []scriptedRead{{"ab !c", nil}, {"de", nil}},
			stepErr: stepErr, wantErr: stepErr, wantRest: 3, wantReads: 1},
		{name: "stop and EOF in one read", reads: []scriptedRead{{"ab !c", io.EOF}},
			wantRest: 3, wantReads: 1},
		{name: "stop and read error in one read", reads: []scriptedRead{{"ab !c", boom}},
			wantRest: 3, wantReads: 1},
		{name: "stop before the reader ends", reads: []scriptedRead{{"ab !c", nil}, {"de", nil}},
			wantRest: 3, wantReads: 1},
		{name: "cancelled before the first read", reads: []scriptedRead{{"ab c", nil}},
			cancelled: true, wantErr: context.Canceled, wantRest: 0, wantReads: 0},
		{name: "read error on a live stream", reads: []scriptedRead{{"ab c", nil}, {"d", boom}},
			wantErr: boom, wantRest: 5, wantReads: 2},
	}
	for _, c := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		if c.cancelled {
			cancel()
		}

		r := &scripted{steps: c.reads}
		s := tok.AcquireStream()
		err := core.Drive(ctx, s, r, 0, func(chunk []byte) error {
			s.Feed(chunk, nil)
			return c.stepErr
		})
		if !errors.Is(err, c.wantErr) || (c.wantErr == nil && err != nil) {
			t.Errorf("%s: Drive err = %v, want %v", c.name, err, c.wantErr)
		}
		if r.reads != c.wantReads {
			t.Errorf("%s: Drive made %d reads, want %d", c.name, r.reads, c.wantReads)
		}
		s.Close(nil)
		if got := s.Rest(); got != c.wantRest {
			t.Errorf("%s: Drive left rest %d, want %d", c.name, got, c.wantRest)
		}
		tok.ReleaseStream(s)

		if c.stepErr == nil {
			r = &scripted{steps: c.reads}
			rest, err := core.TokenizeChunks(ctx, tok, r, 0, nil)
			if !errors.Is(err, c.wantErr) || (c.wantErr == nil && err != nil) {
				t.Errorf("%s: TokenizeChunks err = %v, want %v", c.name, err, c.wantErr)
			}
			if rest != c.wantRest || r.reads != c.wantReads {
				t.Errorf("%s: TokenizeChunks rest %d after %d reads, want %d after %d",
					c.name, rest, r.reads, c.wantRest, c.wantReads)
			}
		}
		cancel()
	}
}
