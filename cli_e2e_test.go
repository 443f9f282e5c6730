package streamtok_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"streamtok"
)

// buildTool compiles one of the cmd/ binaries into a shared temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command(goTool, "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", bin, err, out)
	}
	return string(out), code
}

// TestCLITnd: analysis tool end to end, including exit codes.
func TestCLITnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "tnd")

	out, code := run(t, bin, "", "-catalog", "json")
	if code != 0 || !strings.Contains(out, "max-TND:   3") {
		t.Errorf("tnd -catalog json: code %d\n%s", code, out)
	}

	out, code = run(t, bin, "", `[0-9]*0`, `[ ]+`)
	if code != 1 || !strings.Contains(out, "max-TND:   inf") {
		t.Errorf("tnd unbounded: code %d\n%s", code, out)
	}

	out, code = run(t, bin, "", "-witness", `[0-9]+([eE][+-]?[0-9]+)?`, `[ ]+`)
	if code != 0 || !strings.Contains(out, "pair:") {
		t.Errorf("tnd -witness: code %d\n%s", code, out)
	}

	// Named grammar file.
	gf := filepath.Join(t.TempDir(), "g.tok")
	os.WriteFile(gf, []byte("NUM := [0-9]+\nWS := [ ]+\n"), 0o644)
	out, code = run(t, bin, "", "-f", gf)
	if code != 0 || !strings.Contains(out, "max-TND:   1") {
		t.Errorf("tnd -f: code %d\n%s", code, out)
	}

	out, code = run(t, bin, "", "-listgrammars")
	if code != 0 || !strings.Contains(out, "json") || !strings.Contains(out, "sql-inserts") {
		t.Errorf("tnd -listgrammars: code %d\n%s", code, out)
	}

	if _, code = run(t, bin, "", "-catalog", "nope"); code != 2 {
		t.Errorf("tnd bad catalog: code %d, want 2", code)
	}
}

// TestCLITndLint: the diagnostic suite end to end — human and JSON
// output, and the three-way exit code (0 clean, 1 unbounded, 3 defects).
func TestCLITndLint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "tnd")

	out, code := run(t, bin, "", "-lint", `[0-9]*0`, `[ ]+`)
	if code != 1 {
		t.Errorf("lint unbounded: code %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"error[unbounded-tnd]", "pump:", "culprits:", "error-trap"} {
		if !strings.Contains(out, want) {
			t.Errorf("lint unbounded output missing %q:\n%s", want, out)
		}
	}

	out, code = run(t, bin, "", "-lint", `ab`, `a`, `ab`)
	if code != 3 || !strings.Contains(out, "shadowed-rule") {
		t.Errorf("lint shadowed: code %d, want 3\n%s", code, out)
	}

	out, code = run(t, bin, "", "-lint", `.`)
	if code != 0 || !strings.Contains(out, "clean") || !strings.Contains(out, "total") {
		t.Errorf("lint clean total grammar: code %d\n%s", code, out)
	}

	out, code = run(t, bin, "", "-lint", "-json", `[0-9]*0`, `[ ]+`)
	if code != 1 {
		t.Errorf("lint -json: code %d, want 1\n%s", code, out)
	}
	var rep struct {
		MaxTND      string `json:"maxTND"`
		Diagnostics []struct {
			Code string          `json:"code"`
			Pump json.RawMessage `json:"pump"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("lint -json not parseable: %v\n%s", err, out)
	}
	if rep.MaxTND != "inf" || len(rep.Diagnostics) == 0 {
		t.Errorf("lint -json content: %+v", rep)
	}
	if rep.Diagnostics[0].Code != "unbounded-tnd" || len(rep.Diagnostics[0].Pump) == 0 {
		t.Errorf("lint -json first diagnostic should be unbounded-tnd with a pump: %+v", rep.Diagnostics[0])
	}
}

// TestCLITndCertify: `tnd -certify` emits a verified certificate for
// every bounded catalog grammar (and refuses the unbounded ones), in
// both human and JSON form, and `tnd -emit` machines carry the cert
// that `streamtok -machine -stats` then prints.
func TestCLITndCertify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "tnd")

	for _, name := range streamtok.Catalog() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := streamtok.CatalogGrammar(name)
			if err != nil {
				t.Fatal(err)
			}
			an, err := streamtok.Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			out, code := run(t, bin, "", "-certify", "-json", "-catalog", name)
			if !an.Bounded {
				if code != 1 {
					t.Fatalf("unbounded certify: code %d, want 1\n%s", code, out)
				}
				return
			}
			if code != 0 {
				t.Fatalf("certify: code %d\n%s", code, out)
			}
			var c struct {
				DelayK         int    `json:"delay_k"`
				Dichotomy      int    `json:"dichotomy_bound"`
				GrammarHash    string `json:"grammar_hash"`
				EngineMode     string `json:"engine_mode"`
				TableBytes     int    `json:"table_bytes"`
				ParallelRework int    `json:"parallel_rework_x"`
			}
			if err := json.Unmarshal([]byte(out), &c); err != nil {
				t.Fatalf("certify -json output is not JSON: %v\n%s", err, out)
			}
			if c.DelayK != an.MaxTND {
				t.Errorf("delay_k = %d, want max-TND %d", c.DelayK, an.MaxTND)
			}
			if c.DelayK > c.Dichotomy || c.GrammarHash == "" || c.EngineMode == "" ||
				c.TableBytes <= 0 || c.ParallelRework != 2 {
				t.Errorf("implausible certificate: %+v", c)
			}
		})
	}

	out, code := run(t, bin, "", "-certify", "-catalog", "json")
	if code != 0 || !strings.Contains(out, "cert:") || !strings.Contains(out, "verified:") {
		t.Errorf("certify text: code %d\n%s", code, out)
	}

	// An emitted machine carries the certificate; the streamtok CLI
	// loads it (verifying on load) and prints it next to the stats.
	dir := t.TempDir()
	machine := filepath.Join(dir, "json.stok")
	if out, code := run(t, bin, "", "-catalog", "json", "-emit", machine); code != 0 {
		t.Fatalf("tnd -emit: code %d\n%s", code, out)
	}
	stok := buildTool(t, "streamtok")
	out, code = run(t, stok, `{"a": 1}`, "-machine", machine, "-count", "-stats", "text")
	if code != 0 || !strings.Contains(out, "certified:") || !strings.Contains(out, "dichotomy") {
		t.Errorf("streamtok -machine -stats: code %d\n%s", code, out)
	}
}

// TestCLILexgenWarnings: lint warnings reach stderr while generation
// still succeeds.
func TestCLILexgenWarnings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "lexgen")
	out, code := run(t, bin, "", "-pkg", "x", `a*`, `b`)
	if code != 0 {
		t.Fatalf("lexgen nullable grammar: code %d\n%s", code, out)
	}
	if !strings.Contains(out, "warning: nullable-rule") {
		t.Errorf("lexgen output missing nullable warning:\n%s", out[:min(len(out), 400)])
	}
}

// TestCLIStreamtok: the tokenizer CLI on stdin, both engines, counts, and
// the untokenizable-input exit code.
func TestCLIStreamtok(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "streamtok")

	out, code := run(t, bin, `{"a": 1}`, "-catalog", "json")
	if code != 0 || !strings.Contains(out, "NUMBER") || !strings.Contains(out, `"{"`) {
		t.Errorf("streamtok json: code %d\n%s", code, out)
	}

	out, code = run(t, bin, "12 34 5", "-count", `[0-9]+`, `[ ]+`)
	if code != 0 || !strings.Contains(out, "tokens\t5") {
		t.Errorf("streamtok -count: code %d\n%s", code, out)
	}

	_, code = run(t, bin, "12 x", "-count", `[0-9]+`, `[ ]+`)
	if code != 1 {
		t.Errorf("untokenizable input: code %d, want 1", code)
	}

	out, code = run(t, bin, "ab 12", "-engine", "flex", "-count", `[a-z]+|[0-9]+`, `[ ]+`)
	if code != 0 || !strings.Contains(out, "tokens\t3") {
		t.Errorf("flex engine: code %d\n%s", code, out)
	}
}

// TestCLIPaperbenchList: the experiment registry is reachable.
func TestCLIPaperbenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "paperbench")
	out, code := run(t, bin, "", "-list")
	if code != 0 {
		t.Fatalf("paperbench -list: code %d\n%s", code, out)
	}
	for _, e := range []string{"table1", "fig7a", "fig8", "fig11b", "table2", "rq6"} {
		if !strings.Contains(out, e) {
			t.Errorf("missing experiment %s in:\n%s", e, out)
		}
	}
	out, code = run(t, bin, "", "-exp", "table1")
	if code != 0 || !strings.Contains(out, "json") {
		t.Errorf("paperbench -exp table1: code %d\n%s", code, out)
	}
}

// TestCLILexgen: generate a lexer and check it gofmt-parses.
func TestCLILexgen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "lexgen")
	out, code := run(t, bin, "", "-catalog", "csv", "-pkg", "csvlex")
	if code != 0 || !strings.Contains(out, "package csvlex") || !strings.Contains(out, "func Scan(") {
		t.Fatalf("lexgen: code %d\n%s", code, out[:min(len(out), 400)])
	}
	if _, code = run(t, bin, "", "-catalog", "c"); code != 1 {
		t.Errorf("lexgen unbounded grammar: code %d, want 1", code)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestExamplesRun builds and runs every example with its embedded sample
// input, checking each exits cleanly and prints something sensible.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "max token neighbor distance: 3"},
		{"logtotsv", "sshd"},
		{"jsonminify", `{"name":"streamtok"`},
		{"csvstats", "score"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), c.dir)
			build := exec.Command(goTool, "build", "-o", bin, "./examples/"+c.dir)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			// Leave Stdin nil: the child gets /dev/null (a character
			// device), so each example falls back to its embedded
			// sample input.
			cmd := exec.Command(bin)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}
