package cert_test

import (
	"testing"

	"streamtok/internal/analysis/cert"
	"streamtok/internal/bpe"
	"streamtok/internal/workload"
)

func TestBPECertificate(t *testing.T) {
	v, err := bpe.Train(workload.Prompts(31, 1<<17), 500, bpe.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := bpe.Compile(v, bpe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vm, pm := bt.VocabMachine(), bt.PretokMachine()
	res, eng := bt.PretokAnalysis(), bt.PretokEngine()

	c, err := cert.NewBPE(v.Hash(), vm, pm, res, eng)
	if err != nil {
		t.Fatal(err)
	}
	if c.GrammarHash != v.Hash() {
		t.Errorf("hash = %s, want vocab hash", c.GrammarHash)
	}
	if c.EngineMode != bt.EngineMode() {
		t.Errorf("mode %q != tokenizer's %q", c.EngineMode, bt.EngineMode())
	}
	if c.TableBytes != bt.TableBytes() {
		t.Errorf("table bytes %d != tokenizer's %d", c.TableBytes, bt.TableBytes())
	}
	if c.NumClasses != vm.DFA.NumClasses() {
		t.Errorf("classes %d != vocab DFA's %d", c.NumClasses, vm.DFA.NumClasses())
	}
	if c.DelayK != bt.K() {
		t.Errorf("K %d != pretokenizer's %d", c.DelayK, bt.K())
	}

	if want := "bpe+" + eng.EngineMode(); c.EngineMode != want {
		t.Errorf("mode %q, want %q", c.EngineMode, want)
	}
	if want := vm.TableBytes() + eng.TableBytes(); c.TableBytes != want {
		t.Errorf("table bytes %d, want vocab %d + engine %d", c.TableBytes, vm.TableBytes(), eng.TableBytes())
	}
	if c.SparseTableBytes != vm.Sparse.TableBytes() {
		t.Errorf("sparse table bytes %d, want %d", c.SparseTableBytes, vm.Sparse.TableBytes())
	}
	if want := cert.DenseDFABytes(vm) + cert.DenseDFABytes(pm); c.DenseTableBytes != want {
		t.Errorf("dense table bytes %d, want %d", c.DenseTableBytes, want)
	}
	if c.RingBytes != eng.RingBytes() || c.AccelStates != eng.AccelStates() || c.AccelSlots != eng.AccelSlots() {
		t.Errorf("ring %d, accel %d/%d; want the pretokenizer engine's %d, %d/%d",
			c.RingBytes, c.AccelStates, c.AccelSlots, eng.RingBytes(), eng.AccelStates(), eng.AccelSlots())
	}
	if c.Recertified {
		t.Error("fresh BPE certificate marked recertified")
	}
}
