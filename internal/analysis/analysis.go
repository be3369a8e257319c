// Package analysis is a self-contained, dependency-free reimplementation
// of the golang.org/x/tools/go/analysis surface this project needs. The
// build environment is fully offline (no module proxy), so vendoring the
// real x/tools is not an option; instead the same Analyzer/Pass/Diagnostic
// contract is provided on top of the standard library's go/parser and
// go/types. Analyzers written against this package use only API shapes
// that exist verbatim in x/tools, so the suite can be migrated to the
// upstream framework by swapping import paths once a module proxy is
// reachable.
//
// The package has three parts:
//
//   - analysis.go: the Analyzer/Pass/Diagnostic contract.
//   - loader.go: an offline package loader that resolves import paths with
//     `go list`, and parses and type-checks module packages and fixtures
//     with go/parser and go/types. Standard-library imports are read from
//     the export data the go command builds (`go list -export`, through
//     go/importer), and fixture files are the ones go/build selects.
//   - analysistest.go: a golden-comment test harness compatible with the
//     x/tools `// want "regexp"` convention.
//
// Beside them, helpers.go holds the small type queries the analyzers share
// and multichecker.go runs a suite over loaded packages and returns the
// findings sorted; cmd/graphbig-vet prints them as text or JSON.
//
// Every analyzer is per-package: Run sees one package's syntax and type
// information, and nothing spans packages. The project's analyzers live
// in subpackages (determinism, hotloop, overflowconv) and are aggregated
// by cmd/graphbig-vet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. The fields mirror
// x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name is the analyzer's short command-line name (e.g. "determinism").
	Name string
	// Doc is the help text; by convention the first line states the
	// invariant the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. The returned error aborts the whole vet run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzed package to an Analyzer.Run. The fields mirror
// x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Inspect walks every file of the pass in source order.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// RunAnalyzers applies every analyzer to pkg and returns the findings
// sorted by position (deterministic output order).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			TypesInfo:   pkg.TypesInfo,
			diagnostics: &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
