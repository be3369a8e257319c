package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds a may-call graph over a set of packages. No analyzer
// walks it: every graphbig-vet analyzer is per-package. Resolution
// policy:
//
//   - Static calls (package functions, concrete methods) resolve to the
//     callee's *types.Func; callees declared in the analyzed packages get
//     a node carrying their *ast.FuncDecl.
//   - Interface method calls resolve by class-hierarchy analysis: an
//     edge is added to every concrete method of a module-declared type
//     that implements the interface. This is the conservative direction
//     (may-call superset) for the interface set this project uses.
//   - Function literals are flattened into their enclosing declaration:
//     statements inside a closure are attributed to the function that
//     created it. This matches how the engine's ForItems/ForChunks/
//     TrackedVisit callbacks are used — the closure's effects belong to
//     the workload that wrote it — and is why indirect call *sites*
//     (calls of func-typed values) add no edges of their own: charging
//     them too would double-count every callback body.
//   - A declared function referenced as a value (passed, stored, or
//     assigned rather than called) gets a may-call edge from the
//     referencing function, the conservative stand-in for wherever that
//     value is eventually invoked.

// CallGraph is the module-wide may-call relation.
type CallGraph struct {
	// Nodes maps every function observed (declared in the module or
	// merely referenced, e.g. stdlib callees) to its node.
	Nodes map[*types.Func]*CGNode
}

// CGNode is one function in the call graph.
type CGNode struct {
	Fn *types.Func
	// Decl is the function's syntax when it is declared in an analyzed
	// package; nil for externals (stdlib and other unanalyzed callees).
	Decl *ast.FuncDecl
	// Pkg is the analyzed package declaring the function, nil for
	// externals.
	Pkg *Package
	Out []*CGEdge
	In  []*CGEdge
}

// CGEdge is one call (or reference) site.
type CGEdge struct {
	Caller *CGNode
	Callee *CGNode
	// Site is the call expression, or the referencing identifier for
	// function-value references.
	Site ast.Node
	// Kind classifies resolution: "static", "interface" (CHA-resolved),
	// "ref" (function referenced as a value), "go" (callee spawned as a
	// goroutine via a go statement), or "defer" (callee invoked through a
	// defer statement). A "go" callee runs on a fresh goroutine, so it
	// inherits none of the caller's sequential context.
	Kind string
}

// BuildCallGraph constructs the call graph over pkgs. Deterministic: node
// and edge orders depend only on source order and package path order.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{Nodes: map[*types.Func]*CGNode{}}
	b := &cgBuilder{cg: cg, pkgs: pkgs}
	b.collectTypes()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := b.node(fn)
				node.Decl = fd
				node.Pkg = pkg
				b.walkBody(node, pkg, fd.Body)
			}
		}
	}
	return cg
}

// Node returns fn's node, or nil. Methods are canonicalized through
// Origin so instantiations share their generic declaration's node.
func (cg *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return cg.Nodes[fn.Origin()]
}

// Declared returns the nodes that carry syntax, sorted by position —
// the functions whose bodies are available to inspect.
func (cg *CallGraph) Declared() []*CGNode {
	var out []*CGNode
	for _, n := range cg.Nodes {
		if n.Decl != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

type cgBuilder struct {
	cg   *CallGraph
	pkgs []*Package
	// named lists every named (non-interface) type declared in pkgs, in
	// deterministic order, for CHA resolution of interface calls.
	named []*types.Named
}

func (b *cgBuilder) node(fn *types.Func) *CGNode {
	fn = fn.Origin()
	n, ok := b.cg.Nodes[fn]
	if !ok {
		n = &CGNode{Fn: fn}
		b.cg.Nodes[fn] = n
	}
	return n
}

func (b *cgBuilder) edge(from *CGNode, to *types.Func, site ast.Node, kind string) {
	callee := b.node(to)
	e := &CGEdge{Caller: from, Callee: callee, Site: site, Kind: kind}
	from.Out = append(from.Out, e)
	callee.In = append(callee.In, e)
}

func (b *cgBuilder) collectTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			b.named = append(b.named, named)
		}
	}
}

// walkBody records every call and function-value reference in body
// (closures included) as edges out of node.
func (b *cgBuilder) walkBody(node *CGNode, pkg *Package, body ast.Node) {
	info := pkg.TypesInfo
	// First pass: the idents standing in callee position, so the second
	// pass can tell a call from a function-value reference — and the call
	// expressions hanging off go/defer statements, so their edges carry
	// the spawn kind instead of "static".
	calleeIdent := map[*ast.Ident]bool{}
	spawnKind := map[*ast.CallExpr]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			spawnKind[n.Call] = "go"
		case *ast.DeferStmt:
			spawnKind[n.Call] = "defer"
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				calleeIdent[fun] = true
			case *ast.SelectorExpr:
				calleeIdent[fun.Sel] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && !calleeIdent[n] {
				b.edge(node, fn, n, "ref")
			}
		case *ast.CallExpr:
			kind := "static"
			if k := spawnKind[n]; k != "" {
				kind = k
			}
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[fun].(*types.Func); ok {
					b.edge(node, fn, n, kind)
				}
			case *ast.SelectorExpr:
				fn, _ := info.Uses[fun.Sel].(*types.Func)
				if fn == nil {
					break
				}
				if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
						b.chaEdges(node, n, fn, iface)
						break
					}
				}
				b.edge(node, fn, n, kind)
			}
		}
		return true
	})
}

// chaEdges adds class-hierarchy edges for an interface method call: one
// per module-declared type implementing the interface with this method.
func (b *cgBuilder) chaEdges(node *CGNode, call *ast.CallExpr, ifaceMethod *types.Func, iface *types.Interface) {
	// Keep the abstract edge too, so a walk over the graph can treat an
	// unresolved interface callee conservatively.
	b.edge(node, ifaceMethod, call, "interface")
	name := ifaceMethod.Name()
	for _, named := range b.named {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, ifaceMethod.Pkg(), name)
		if concrete, ok := obj.(*types.Func); ok {
			b.edge(node, concrete, call, "interface")
		}
	}
}
