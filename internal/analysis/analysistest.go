package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunTest loads each fixture package from <cwd>/testdata/src/<pkgpath>,
// applies the analyzer, and compares its findings against `// want "re"`
// comments, the x/tools analysistest convention: every line carrying a
// want comment must produce a diagnostic matching the quoted regular
// expression, and every diagnostic must be claimed by a want comment.
// Several quoted regexes may follow one want for lines with multiple
// findings. The analyzer is applied to each fixture package in turn.
func RunTest(t *testing.T, a *Analyzer, pkgpaths ...string) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.TestdataRoot, err = filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgpath := range pkgpaths {
		runFixture(t, l, a, pkgpath)
	}
}

// RunSource is RunTest for one in-memory fixture: src, a whole Go file,
// becomes the only file of package pkgpath under a fresh testdata root.
// Table tests use it to keep each case's source beside its name.
func RunSource(t *testing.T, a *Analyzer, pkgpath, src string) {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, filepath.FromSlash(pkgpath))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.TestdataRoot = root
	runFixture(t, l, a, pkgpath)
}

func runFixture(t *testing.T, l *Loader, a *Analyzer, pkgpath string) {
	t.Helper()
	pkg, err := l.LoadFixture(pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	diags, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkgpath, err)
	}
	checkWants(t, pkg.Fset, pkg.Files, diags)
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	// file:line -> pending expectations.
	wants := map[string][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				res, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(c.Pos()), err)
				}
				if len(res) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], res...)
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		claimed := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	keys := make([]string, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

// parseWant extracts the quoted regexes from a `// want "re" "re2"` comment
// (nil if the comment is not a want comment).
func parseWant(comment string) ([]*want, error) {
	text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(comment), "//"))
	if !strings.HasPrefix(text, "want ") {
		return nil, nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
	var res []*want
	for rest != "" {
		quote := rest[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want comment: expected quoted regexp at %q", rest)
		}
		end := 1
		for end < len(rest) {
			if quote == '"' && rest[end] == '\\' {
				end += 2
				continue
			}
			if rest[end] == quote {
				break
			}
			end++
		}
		if end >= len(rest) {
			return nil, fmt.Errorf("want comment: unterminated string in %q", rest)
		}
		lit, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("want comment: %v", err)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("want comment: bad regexp: %v", err)
		}
		res = append(res, &want{re: re})
		rest = strings.TrimSpace(rest[end+1:])
	}
	return res, nil
}
