package analysis

import (
	"go/ast"
	"go/token"
	"sync"
)

// Module groups a set of analyzed packages with a per-function CFG
// cache. No analyzer takes a Module: every analyzer is per-package. It
// remains as the handle the ssa package caches its forms under.
type Module struct {
	Pkgs []*Package
	Fset *token.FileSet

	mu   sync.Mutex
	cfgs map[ast.Node]*CFG
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

// CFGOfFunc returns the control-flow graph of any function syntax node —
// an *ast.FuncDecl or *ast.FuncLit — cached by node.
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
