package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Finding is one diagnostic with its position resolved, the
// serialization unit of graphbig-vet's text and JSON output modes.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// VetAll loads the packages matching patterns (module packages only;
// standard-library imports are read from export data and never analyzed)
// and applies every analyzer to each package.
// Findings come back sorted by file, line, column. Test files are not
// analyzed: the invariants protect shipped simulation and engine code.
func VetAll(analyzers []*Analyzer, patterns ...string) ([]Finding, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := NewLoader(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var finds []Finding
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			finds = append(finds, Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Analyzer: d.Analyzer, Message: d.Message})
		}
	}
	SortFindings(finds)
	return finds, nil
}

// SortFindings orders findings deterministically by (file, line, col,
// analyzer, message) — the contract the -json output and CI artifact
// diffs rely on: two runs over the same tree produce byte-identical
// output regardless of analyzer scheduling.
func SortFindings(finds []Finding) {
	sort.Slice(finds, func(i, j int) bool {
		a, b := finds[i], finds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Doc renders a one-line-per-analyzer summary for -help output.
func Doc(analyzers []*Analyzer) string {
	var b strings.Builder
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(&b, "  %-14s %s\n", a.Name, doc)
	}
	return b.String()
}
