package bpe

import (
	"strings"
	"testing"
	"time"

	"streamtok/internal/core"
	"streamtok/internal/workload"
)

// TestCompileFusedUnderDefaultBudget pins the acceptance-critical sizing
// claim: an 8k-merge vocabulary trained on the prompt workload compiles
// through the class-native path into an engine whose resident tables —
// vocab DFA plus fused pretokenizer — fit the default 16 MB budget with
// the pretokenizer still fused.
func TestCompileFusedUnderDefaultBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an 8k-merge vocabulary")
	}
	corpus := workload.Prompts(42, 4<<20)
	t0 := time.Now()
	v, err := Train(corpus, 8000, TrainOptions{MaxTokenLen: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("train: %d tokens, maxLen %d, %v", v.Size(), v.MaxTokenLen(), time.Since(t0))
	if v.Size() < 8000 {
		t.Fatalf("trainer exhausted merges: %d tokens", v.Size())
	}

	t0 = time.Now()
	tok, err := Compile(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("compile: mode=%s vocab(states=%d C=%d table=%dB) pretok(table=%dB K=%d) total=%dB in %v",
		tok.EngineMode(), tok.VocabMachine().DFA.NumStates(), tok.VocabMachine().DFA.NumClasses(),
		tok.VocabMachine().DFA.TableBytes(), tok.PretokEngine().TableBytes(), tok.K(),
		tok.TableBytes(), time.Since(t0))

	if !strings.HasPrefix(tok.EngineMode(), "bpe+fused") {
		t.Errorf("pretokenizer did not fuse: mode %s", tok.EngineMode())
	}
	if tok.TableBytes() > 16<<20 {
		t.Errorf("resident tables %d bytes exceed the 16 MB budget", tok.TableBytes())
	}

	// The compiled engine must agree with the reference encoder on a
	// held-out sample (different seed than the training corpus).
	sample := workload.Prompts(1234, 1<<16)
	want := v.Encode(nil, sample)
	toks, rest := core.TokenizeBytes(tok, sample)
	if rest != len(sample) {
		t.Fatalf("rest = %d, want %d", rest, len(sample))
	}
	if len(toks) != len(want) {
		t.Fatalf("stream emitted %d tokens, reference %d", len(toks), len(want))
	}
	for i := range toks {
		if toks[i].Rule != want[i] {
			t.Fatalf("token %d: stream rank %d, reference %d", i, toks[i].Rule, want[i])
		}
	}
	pieces, fallbacks := tok.Counters()
	t.Logf("sample: %d tokens, %d pieces, %d fallbacks", len(toks), pieces, fallbacks)
}
