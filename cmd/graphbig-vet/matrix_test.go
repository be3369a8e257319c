package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// matrixPath is the catch matrix: the seeded-bug corpus and, per row, which
// detectors caught it at the commit the suite was cut down from.
const matrixPath = "../../results/vet_catch_matrix.json"

// matcherPath is the CI problem matcher that turns graphbig-vet's text
// output into annotations.
const matcherPath = "../../.github/graphbig-vet-problem-matcher.json"

type matrixRow struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	File string `json:"file"`
	Old  string `json:"old"`
	New  string `json:"new"`
	// Caught maps each detector to whether it caught the row; null marks a
	// detector that was not run.
	Caught map[string]*bool `json:"caught"`
}

type catchMatrix struct {
	Analyzers []string    `json:"analyzers"`
	Kept      []string    `json:"kept"`
	Rows      []matrixRow `json:"rows"`
}

// analyzerOnly reports whether a bug row was caught at the parent by some
// analyzer and by no other detector: the rows the kept suite must cover.
func (m *catchMatrix) analyzerOnly(r matrixRow) bool {
	byAnalyzer, byOther := false, false
	for det, c := range r.Caught {
		if c == nil || !*c {
			continue
		}
		if slices.Contains(m.Analyzers, det) {
			byAnalyzer = true
		} else {
			byOther = true
		}
	}
	return r.Kind != "control" && byAnalyzer && !byOther
}

// TestCatchMatrix replays the corpus against the registered suite. Every
// row's old text must still match the tree exactly once; applied to one
// copy of the module's sources, each row is vetted over its own package's
// pattern, and every registered analyzer must fire exactly when the matrix
// says it did. A row that only analyzers caught must still be caught by
// one of them, so dropping an analyzer the matrix kept fails here. Each
// row's findings, printed as text, must parse under the CI problem matcher
// back to the same file, line, column, message and analyzer.
func TestCatchMatrix(t *testing.T) {
	matcher := problemMatcher(t)
	buf, err := os.ReadFile(matrixPath)
	if err != nil {
		t.Fatal(err)
	}
	var m catchMatrix
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	if !slices.Equal(names, m.Kept) {
		t.Errorf("registered analyzers %v, matrix keeps %v", names, m.Kept)
	}

	root := t.TempDir()
	copyGoSources(t, "../..", root)
	t.Chdir(root)
	for _, r := range m.Rows {
		path := filepath.Join(root, r.File)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), r.Old); n != 1 {
			t.Errorf("%s: old text matches %s %d times, want once", r.Name, r.File, n)
			continue
		}
		patched := strings.Replace(string(src), r.Old, r.New, 1)
		if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
			t.Fatal(err)
		}
		finds, err := analysis.VetAll(Analyzers(), "./"+filepath.Dir(r.File)+"/...")
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		fired := map[string]bool{}
		for _, f := range finds {
			fired[f.Analyzer] = true
		}
		checkMatcher(t, r.Name, matcher, finds)
		for _, a := range names {
			want := r.Caught[a] != nil && *r.Caught[a]
			if fired[a] != want {
				t.Errorf("%s: %s fired=%v, matrix says %v", r.Name, a, fired[a], want)
			}
		}
		if m.analyzerOnly(r) && len(fired) == 0 {
			t.Errorf("%s: only analyzers caught this row at the parent, and none of the registered ones fires", r.Name)
		}
	}
}

// problemMatcher compiles the one pattern of the CI problem matcher.
func problemMatcher(t *testing.T) *regexp.Regexp {
	t.Helper()
	buf, err := os.ReadFile(matcherPath)
	if err != nil {
		t.Fatal(err)
	}
	var pm struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(buf, &pm); err != nil {
		t.Fatal(err)
	}
	if len(pm.ProblemMatcher) != 1 || len(pm.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("%s: want one matcher with one pattern", matcherPath)
	}
	return regexp.MustCompile(pm.ProblemMatcher[0].Pattern[0].Regexp)
}

// checkMatcher prints finds through the text printer and checks that the
// matcher reads every line back as the finding it came from.
func checkMatcher(t *testing.T, row string, matcher *regexp.Regexp, finds []analysis.Finding) {
	t.Helper()
	var out bytes.Buffer
	if err := writeFindings(&out, finds, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) != len(finds)+1 || lines[len(finds)] != "" {
		t.Fatalf("%s: %d findings printed as %q", row, len(finds), out.String())
	}
	for i, f := range finds {
		line := lines[i]
		want := []string{line, f.File, strconv.Itoa(f.Line), strconv.Itoa(f.Col), f.Message, f.Analyzer}
		if got := matcher.FindStringSubmatch(line); !slices.Equal(got, want) {
			t.Errorf("%s: problem matcher reads %q as %q, want %q", row, line, got, want)
		}
	}
}

// copyGoSources copies go.mod and every non-test Go file under from into
// to, keeping the layout; testdata trees are skipped.
func copyGoSources(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(to, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
