package streamtok_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestWorkflowSelectors checks that every go test selector in the CI
// workflows selects something. go test exits 0 when a -fuzz pattern
// names no fuzz target or a -run pattern matches no test, so a renamed
// or deleted test would silently turn its CI step into a no-op:
//
//   - every -fuzz pattern (matrix entries expanded) matches exactly one
//     Fuzz function in the one package named — go test refuses to fuzz
//     more than one target;
//   - every -run pattern other than NONE matches at least one Test or
//     Fuzz function in each package listed.
func TestWorkflowSelectors(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files found (%v)", err)
	}
	funcs := map[string][]string{} // package dir -> Test/Fuzz function names
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range goTestCommands(string(data)) {
			checked++
			cmd.where = file + " " + cmd.where
			checkSelectors(t, cmd, funcs)
		}
	}
	if checked == 0 {
		t.Fatal("no go test commands found in the workflows")
	}
}

// workflowCmd is one go test invocation: its arguments after "go test"
// and where it was found.
type workflowCmd struct {
	where string
	args  []string
}

var (
	matrixEntryRE = regexp.MustCompile(`^\s*-\s*\{(.*)\}\s*$`)
	matrixRefRE   = regexp.MustCompile(`\$\{\{\s*matrix\.(\w+)\s*\}\}`)
)

// goTestCommands extracts every go test invocation from a workflow
// file, joining backslash-continued lines and expanding ${{ matrix.x }}
// references once per `- { k: v, ... }` matrix entry in the file.
func goTestCommands(yml string) []workflowCmd {
	lines := strings.Split(yml, "\n")
	var matrix []map[string]string
	for _, line := range lines {
		m := matrixEntryRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		entry := map[string]string{}
		for _, kv := range strings.Split(m[1], ",") {
			if k, v, ok := strings.Cut(kv, ":"); ok {
				entry[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
		}
		matrix = append(matrix, entry)
	}
	var cmds []workflowCmd
	for i := 0; i < len(lines); i++ {
		lineNo := i + 1
		line := lines[i]
		for strings.HasSuffix(strings.TrimSpace(line), `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(strings.TrimSpace(line), `\`) + " " + lines[i]
		}
		at := strings.Index(line, "go test ")
		if at < 0 {
			continue
		}
		text := line[at+len("go test "):]
		expansions := []string{text}
		if matrixRefRE.MatchString(text) {
			expansions = expansions[:0]
			for _, entry := range matrix {
				expansions = append(expansions, matrixRefRE.ReplaceAllStringFunc(text, func(ref string) string {
					return entry[matrixRefRE.FindStringSubmatch(ref)[1]]
				}))
			}
		}
		for _, e := range expansions {
			cmds = append(cmds, workflowCmd{
				where: fmt.Sprintf("line %d: go test %s", lineNo, strings.TrimSpace(e)),
				args:  shellWords(e),
			})
		}
	}
	return cmds
}

// shellWords splits a command line into words, honouring single and
// double quotes, and stops at the first shell operator.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case unicode.IsSpace(r):
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	for i, w := range words {
		switch w {
		case "&&", "||", "|", ";":
			return words[:i]
		}
	}
	return words
}

// valueFlags are the go test flags that take their value as the next
// word when written without '='.
var valueFlags = map[string]bool{
	"-run": true, "-skip": true, "-fuzz": true, "-bench": true, "-benchtime": true,
	"-fuzztime": true, "-fuzzminimizetime": true, "-count": true, "-cpu": true,
	"-parallel": true, "-timeout": true, "-tags": true, "-o": true, "-p": true,
}

func checkSelectors(t *testing.T, cmd workflowCmd, funcs map[string][]string) {
	t.Helper()
	var run, fuzz string
	var pkgs []string
	for i := 0; i < len(cmd.args); i++ {
		a := cmd.args[i]
		if !strings.HasPrefix(a, "-") {
			if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
			}
			continue
		}
		name, val, hasVal := strings.Cut(a, "=")
		if !hasVal && valueFlags[name] && i+1 < len(cmd.args) {
			i++
			val = cmd.args[i]
		}
		switch name {
		case "-run":
			run = val
		case "-fuzz":
			fuzz = val
		}
	}
	wild := false
	for _, p := range pkgs {
		wild = wild || strings.HasSuffix(p, "...")
	}
	if fuzz != "" {
		re, err := regexp.Compile(fuzz)
		if err != nil {
			t.Errorf("%s: bad -fuzz pattern: %v", cmd.where, err)
			return
		}
		if len(pkgs) != 1 || wild {
			t.Errorf("%s: -fuzz needs exactly one package, got %v", cmd.where, pkgs)
			return
		}
		var hits []string
		for _, f := range testFuncs(t, pkgs[0], funcs) {
			if strings.HasPrefix(f, "Fuzz") && re.MatchString(f) {
				hits = append(hits, f)
			}
		}
		if len(hits) != 1 {
			t.Errorf("%s: -fuzz %q matches fuzz targets %v in %s, want exactly one", cmd.where, fuzz, hits, pkgs[0])
		}
	}
	if run == "" || run == "NONE" || wild {
		return
	}
	// go test matches the first '/'-separated element against top-level
	// test names; workflow patterns do not use subtest selectors.
	re, err := regexp.Compile(strings.Split(run, "/")[0])
	if err != nil {
		t.Errorf("%s: bad -run pattern: %v", cmd.where, err)
		return
	}
	for _, p := range pkgs {
		found := false
		for _, f := range testFuncs(t, p, funcs) {
			if re.MatchString(f) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: -run %q matches no test in %s", cmd.where, run, p)
		}
	}
}

// testFuncs returns the Test and Fuzz function names declared in the
// _test.go files of package directory dir (cached in funcs).
func testFuncs(t *testing.T, dir string, funcs map[string][]string) []string {
	t.Helper()
	dir = filepath.Clean(dir)
	if names, ok := funcs[dir]; ok {
		return names
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if isTestName(fd.Name.Name, "Test") || isTestName(fd.Name.Name, "Fuzz") {
				names = append(names, fd.Name.Name)
			}
		}
	}
	funcs[dir] = names
	return names
}

// isTestName reports whether name is prefix followed by nothing or by a
// character that is not a lower-case letter, go test's naming rule.
func isTestName(name, prefix string) bool {
	if !strings.HasPrefix(name, prefix) {
		return false
	}
	if len(name) == len(prefix) {
		return true
	}
	r, _ := utf8.DecodeRuneInString(name[len(prefix):])
	return !unicode.IsLower(r)
}
