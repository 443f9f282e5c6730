package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"streamtok"
)

// The file-docs workload tokenizes documents from disk through the
// library, as `streamtok` does on a file. The tokenizing process is a
// child of the generator so that its peak RSS is the tokenizer's alone:
// the generator holds the inputs and expected outputs, the child only
// streams documents from disk.

// childJob is what the generator hands the tokenizing child. A job
// without phases only sets up and makes one pass over the documents:
// set-up and peak memory are measured in several fresh processes, as
// streamtok pays set-up once per process.
type childJob struct {
	Items     []*item      `json:"items"`
	VocabPath string       `json:"vocab_path"`
	Phases    []childPhase `json:"phases"`
}

type childPhase struct {
	Traced  bool          `json:"traced"`
	Seconds time.Duration `json:"seconds"`
}

// childReport is what the child sends back on its standard output.
type childReport struct {
	Setup      float64            `json:"setup_s"`
	SetupSlice time.Duration      `json:"setup_slice"`  // calibration slice just before set-up
	Compile    map[string]float64 `json:"compile_s"`    // per source
	SetupRSSMB float64            `json:"setup_rss_mb"` // VmHWM once set up, less the calibrator
	PeakRSSMB  float64            `json:"peak_rss_mb"`  // VmHWM at exit, less the calibrator
	Phases     []childPhaseReport `json:"phases"`
}

type childPhaseReport struct {
	Traced bool          `json:"traced"`
	Wall   time.Duration `json:"wall"`
	CPU    time.Duration `json:"cpu"`
	Ops    []docOp       `json:"ops"`
	// Slices are the calibration slices around the passes: slice i
	// runs just before pass i, and the last one after the last pass.
	Slices []time.Duration `json:"slices"`
	Stats  engineStats     `json:"stats"` // AggregateStats deltas over the phase, summed over sources
	Spans  []span          `json:"spans,omitempty"`
}

// docOp is one Tokenize call on one document. Times are nanoseconds
// from the start of the phase.
type docOp struct {
	Pass  int    `json:"pass"`
	Item  int    `json:"item"`
	Start int64  `json:"start"`
	First int64  `json:"first"`
	End   int64  `json:"end"`
	Bytes int    `json:"bytes"`
	Fail  string `json:"fail,omitempty"`
}

// runFileDocsChild is the tokenizing process. Set-up is LoadVocab plus
// Compile of every source. Each phase is a closed loop of whole passes
// over the documents, one Tokenize per document, so every phase sees
// the same mix. A calibration slice runs on the tokenizing goroutine
// before set-up and between passes.
func runFileDocsChild(r io.Reader, w io.Writer) error {
	var job childJob
	if err := json.NewDecoder(r).Decode(&job); err != nil {
		return err
	}
	rep := childReport{Compile: map[string]float64{}}
	toks := map[string]*streamtok.Tokenizer{}
	cal := newCalibrator(1)
	rep.SetupSlice = cal.slice(1)
	t0 := time.Now()
	for _, it := range job.Items {
		if _, ok := toks[it.Source]; ok {
			continue
		}
		c0 := time.Now()
		var src streamtok.Source
		if it.Source == vocabName {
			v, err := streamtok.LoadVocab(job.VocabPath)
			if err != nil {
				return err
			}
			src = v
		} else {
			g, err := streamtok.CatalogGrammar(it.Source)
			if err != nil {
				return err
			}
			src = g
		}
		t, err := streamtok.Compile(src, streamtok.Options{Minimize: true})
		if err != nil {
			return err
		}
		toks[it.Source] = t
		rep.Compile[it.Source] = time.Since(c0).Seconds()
	}
	rep.Setup = time.Since(t0).Seconds()
	var err error
	if rep.SetupRSSMB, err = procStatus(os.Getpid(), "VmHWM"); err != nil {
		return err
	}
	rep.SetupRSSMB -= cal.residentMB()
	// One untimed pass: pools fill, the page cache holds every
	// document, and the process reaches the memory it tokenizes in.
	for _, it := range job.Items {
		if _, err := tokenizeDoc(toks[it.Source], it, time.Now(), nil); err != nil {
			return err
		}
	}
	for _, ph := range job.Phases {
		pr, err := docPhase(toks, job.Items, ph, cal)
		if err != nil {
			return err
		}
		rep.Phases = append(rep.Phases, pr)
	}
	if rep.PeakRSSMB, err = procStatus(os.Getpid(), "VmHWM"); err != nil {
		return err
	}
	rep.PeakRSSMB -= cal.residentMB()
	return json.NewEncoder(w).Encode(rep)
}

func docPhase(toks map[string]*streamtok.Tokenizer, items []*item, ph childPhase, cal *calibrator) (childPhaseReport, error) {
	pr := childPhaseReport{Traced: ph.Traced}
	var tr *tracer
	if ph.Traced {
		tr = newTracer()
	}
	before := aggregate(toks)
	cpu0 := selfCPU()
	t0 := time.Now()
	pr.Slices = append(pr.Slices, cal.slice(1))
	for pass := 0; time.Since(t0) < ph.Seconds; pass++ {
		for _, it := range items {
			op, err := tokenizeDoc(toks[it.Source], it, t0, tr)
			if err != nil {
				return pr, err
			}
			op.Pass = pass
			pr.Ops = append(pr.Ops, op)
		}
		pr.Slices = append(pr.Slices, cal.slice(1))
	}
	pr.Wall = time.Since(t0)
	pr.CPU = selfCPU() - cpu0
	pr.Stats = aggregate(toks).sub(before)
	if tr != nil {
		pr.Spans = tr.snapshot()
	}
	return pr, nil
}

// tokenizeDoc runs one Tokenize over a document on disk and checks its
// token stream. With a tracer it records an "op" span (open to close)
// holding a "streamtok.Tokenize" span, which holds one "io.read" span
// per read Tokenize makes.
func tokenizeDoc(t *streamtok.Tokenizer, it *item, t0 time.Time, tr *tracer) (docOp, error) {
	op := docOp{Item: it.ID, Bytes: it.Size}
	start := time.Now()
	f, err := os.Open(it.Path)
	if err != nil {
		return op, err
	}
	defer f.Close()
	d := newDigest()
	var first time.Time
	emit := func(tk streamtok.Token, _ []byte) {
		if d.n == 0 {
			first = time.Now()
		}
		d.add(tk.Start, tk.End, tk.Rule)
	}
	var r io.Reader = f
	var reads []([2]time.Time)
	if tr != nil {
		r = &timedReader{r: f, reads: &reads}
	}
	tk0 := time.Now()
	rest, err := t.Tokenize(r, 0, emit)
	tk1 := time.Now()
	if err != nil {
		op.Fail = err.Error()
	} else {
		op.Fail = d.verify(it.Want, rest)
	}
	end := time.Now()
	op.Start, op.End = int64(start.Sub(t0)), int64(end.Sub(t0))
	if !first.IsZero() {
		op.First = int64(first.Sub(t0))
	}
	if tr != nil {
		root := tr.record("op", 0, start, end)
		id := tr.record("streamtok.Tokenize", root, tk0, tk1)
		for _, rd := range reads {
			tr.record("io.read", id, rd[0], rd[1])
		}
	}
	return op, nil
}

// timedReader records the interval of every Read.
type timedReader struct {
	r     io.Reader
	reads *[]([2]time.Time)
}

func (t *timedReader) Read(p []byte) (int, error) {
	a := time.Now()
	n, err := t.r.Read(p)
	*t.reads = append(*t.reads, [2]time.Time{a, time.Now()})
	return n, err
}

// aggregate sums AggregateStats over the tokenizers, read through the
// same JSON rendering /metrics serves.
func aggregate(toks map[string]*streamtok.Tokenizer) engineStats {
	var ss []engineStats
	for src, t := range toks {
		data, err := json.Marshal(t.AggregateStats())
		if err != nil {
			panic(err) // Stats always marshals
		}
		var s engineStats
		if err := json.Unmarshal(data, &s); err != nil {
			panic(err)
		}
		if src == vocabName {
			s.VocabBytes = s.BytesIn
		}
		ss = append(ss, s)
	}
	return sumStats(ss)
}

// runChild starts the tokenizing child, hands it job and waits for its
// report. The child's own CPU and peak RSS are in the report.
func runChild(self string, job childJob, logPath string) (*childReport, time.Duration, error) {
	in, err := json.Marshal(job)
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(self, "-child", "file-docs")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = logf
	var outb bytes.Buffer
	cmd.Stdout = &outb
	gen0 := selfCPU()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	track(cmd.Process)
	err = cmd.Wait()
	untrack(cmd.Process)
	gen := selfCPU() - gen0
	if err != nil {
		return nil, 0, fmt.Errorf("file-docs child: %w (log in %s)", err, logPath)
	}
	var rep childReport
	if err := json.Unmarshal(outb.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("file-docs child report: %w", err)
	}
	return &rep, gen, nil
}
