package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"sync"
)

// Module is the whole-program view handed to interprocedural analyzers:
// every analyzed package plus the lazily built, shared call graph and
// per-function CFG cache. A Module is safe for use by one analyzer at a
// time (RunModuleAnalyzers runs them sequentially); the lazy caches are
// still mutex-guarded so tests may share one across subtests.
type Module struct {
	Pkgs []*Package
	Fset *token.FileSet

	mu     sync.Mutex
	cg     *CallGraph
	cfgs   map[ast.Node]*CFG
	ranges *RangeInfo
}

// NewModule wraps pkgs (which must share one FileSet, as Loader
// guarantees) into a Module.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Pkgs: pkgs, cfgs: map[ast.Node]*CFG{}}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	return m
}

// CallGraph returns the module call graph, building it on first use.
func (m *Module) CallGraph() *CallGraph {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cg == nil {
		m.cg = BuildCallGraph(m.Pkgs)
	}
	return m.cg
}

// Ranges returns the module's shared value-range analysis cache,
// creating it on first use.
func (m *Module) Ranges() *RangeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ranges == nil {
		m.ranges = newRangeInfo(m)
	}
	return m.ranges
}

// CFGOfFunc returns the control-flow graph of any function syntax node —
// an *ast.FuncDecl or *ast.FuncLit — cached by node. The SSA layer uses
// it to share one CFG per function literal across analyzers instead of
// rebuilding per analysis.
func (m *Module) CFGOfFunc(fn ast.Node) *CFG {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cfgs[fn]
	if !ok {
		c = BuildCFG(fn)
		m.cfgs[fn] = c
	}
	return c
}

// ModulePass carries the Module to an Analyzer.RunModule, mirroring how
// Pass carries one package to Analyzer.Run.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	diagnostics *[]Diagnostic
}

// Report records a finding at pos.
func (mp *ModulePass) Report(pos token.Pos, format string, args ...any) {
	*mp.diagnostics = append(*mp.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: mp.Analyzer.Name,
	})
}

// RunModuleAnalyzers applies every module-scoped analyzer (RunModule set)
// to m and returns the findings sorted by position.
func RunModuleAnalyzers(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Module: m, diagnostics: &diags}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
