package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
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

// AnalyzerTiming is one analyzer's wall-clock accumulated across every
// package, in suite order — what the CI time-budget step records.
type AnalyzerTiming struct {
	Analyzer string  `json:"analyzer"`
	Seconds  float64 `json:"seconds"`
}

// VetResult bundles one run of the suite: the findings and per-analyzer
// wall-clock.
type VetResult struct {
	Findings []Finding        `json:"findings"`
	Timings  []AnalyzerTiming `json:"timings"`
}

// VetAll loads the packages matching patterns (module packages only;
// the standard-library closure is type-checked but never analyzed) and
// applies every analyzer to each package, each analyzer timed
// individually.
// Findings come back sorted by file, line, column. Test files are not
// analyzed: the invariants protect shipped simulation and engine code.
func VetAll(analyzers []*Analyzer, patterns ...string) (*VetResult, error) {
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
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			start := time.Now()
			diags, err := RunAnalyzers(pkg, []*Analyzer{a})
			elapsed[i] += time.Since(start)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				finds = append(finds, Finding{File: pos.Filename, Line: pos.Line, Col: pos.Column, Analyzer: d.Analyzer, Message: d.Message})
			}
		}
	}
	SortFindings(finds)
	res := &VetResult{Findings: finds}
	for i, a := range analyzers {
		res.Timings = append(res.Timings, AnalyzerTiming{Analyzer: a.Name, Seconds: elapsed[i].Seconds()})
	}
	return res, nil
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

// VetFindings runs VetAll and returns just the findings.
func VetFindings(analyzers []*Analyzer, patterns ...string) ([]Finding, error) {
	res, err := VetAll(analyzers, patterns...)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// Vet runs VetFindings and writes one "file:line:col: message [analyzer]"
// line per finding — the format the CI problem matcher parses. It returns
// the number of findings.
func Vet(w io.Writer, analyzers []*Analyzer, patterns ...string) (int, error) {
	finds, err := VetFindings(analyzers, patterns...)
	if err != nil {
		return 0, err
	}
	for _, f := range finds {
		fmt.Fprintf(w, "%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
	}
	return len(finds), nil
}

// VetJSON runs VetFindings and writes the findings as a JSON array (empty
// array, not null, for a clean tree — consumers can always range over
// it). It returns the number of findings.
func VetJSON(w io.Writer, analyzers []*Analyzer, patterns ...string) (int, error) {
	finds, err := VetFindings(analyzers, patterns...)
	if err != nil {
		return 0, err
	}
	if finds == nil {
		finds = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(finds); err != nil {
		return 0, err
	}
	return len(finds), nil
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
