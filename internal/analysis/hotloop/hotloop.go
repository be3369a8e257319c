// Package hotloop protects what the engine refactor bought (CHANGES.md
// PR 1; engine.bfs_vs_seq in results/BENCH_17.json is today's figure): the
// inner loops of the frontier engine and the workload native kernels iterate
// flat int32 CSR arrays precisely because per-edge hash probes, heap
// allocations and dynamic dispatch are what made the legacy framework
// walk slow (GraphBIG §4.1's pointer-chasing overhead). This analyzer
// keeps those costs from creeping back into the per-edge code.
//
// Inside any lexical loop nest two or more deep — the canonical
// per-vertex-then-per-edge shape — it flags:
//
//   - map indexing and map iteration (hash probe per edge);
//   - make/new/&composite allocations (per-edge heap garbage);
//   - type assertions and explicit conversions to interface types
//     (dynamic dispatch and boxing per edge).
//
// Function literals inherit the loop depth of their enclosing scope: the
// engine's ForItems/ForChunks bodies run once per work item, so a loop
// inside a closure inside a loop is a nested hot loop even though the
// closure resets syntactic nesting. A function literal bound by a
// package-level var (`var f = func(...) {…}`) is walked from depth 0, like
// a declared function. Depth-1 code (per-vertex setup,
// per-round buffers) is deliberately exempt — amortized O(V) work is not
// the hazard, O(E) work is.
package hotloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

var scope = []string{"internal/engine", "internal/workloads"}

var Analyzer = &analysis.Analyzer{
	Name: "hotloop",
	Doc:  "forbid map access, allocation and interface conversion in nested (per-edge) hot loops",
	Run:  run,
}

// hot is the loop depth at which findings fire.
const hot = 2

func run(pass *analysis.Pass) error {
	if !analysis.HasPathSuffix(pass.Pkg.Path(), scope...) {
		return nil
	}
	visit := func(n ast.Node, depth int) { check(pass, n, depth) }
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					walkLoopDepth(d.Body, visit)
				}
			case *ast.GenDecl:
				// Function literals bound by package-level vars
				// (`var f = func(...) {…}`) are kernels too.
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, v := range spec.(*ast.ValueSpec).Values {
						walkLoopDepth(v, visit)
					}
				}
			}
		}
	}
	return nil
}

// check flags per-edge hazards at the given lexical loop depth (the depth
// accounting lives in walkLoopDepth).
func check(pass *analysis.Pass, n ast.Node, depth int) {
	switch s := n.(type) {
	case *ast.RangeStmt:
		// The range node is visited at the enclosing depth; its hash walk
		// happens once per iteration of the loop it forms, hence depth+1.
		if depth+1 >= hot && analysis.IsMap(pass.TypesInfo, s.X) {
			pass.Report(s.Pos(), "map iteration in a nested hot loop costs a hash walk per edge; hoist to a dense slice")
		}
	case *ast.IndexExpr:
		if depth >= hot && analysis.IsMap(pass.TypesInfo, s.X) {
			pass.Report(s.Pos(), "map indexing in a nested hot loop costs a hash probe per edge; use a dense slice keyed by vertex index")
		}
	case *ast.TypeAssertExpr:
		if depth >= hot && s.Type != nil {
			pass.Report(s.Pos(), "type assertion in a nested hot loop adds per-edge dynamic checks; hoist the concrete type out of the loop")
		}
	case *ast.CallExpr:
		if depth < hot {
			return
		}
		if isAllocBuiltin(pass.TypesInfo, s) {
			pass.Report(s.Pos(), "allocation in a nested hot loop creates per-edge garbage; preallocate outside the traversal")
		} else if isIfaceConversion(pass.TypesInfo, s) {
			pass.Report(s.Pos(), "conversion to an interface in a nested hot loop boxes per edge; keep hot values concrete")
		}
	case *ast.UnaryExpr:
		if depth >= hot && s.Op == token.AND {
			if _, lit := s.X.(*ast.CompositeLit); lit {
				pass.Report(s.Pos(), "&composite literal in a nested hot loop escapes to the heap per edge; reuse a preallocated value")
			}
		}
	}
}

// isAllocBuiltin reports calls to the make and new builtins.
func isAllocBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "make" || b.Name() == "new"
	}
	return false
}

// isIfaceConversion reports explicit conversions T(x) where T is an
// interface type and x is not already an interface.
func isIfaceConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	if !types.IsInterface(tv.Type) {
		return false
	}
	argT, ok := info.Types[call.Args[0]]
	return ok && argT.Type != nil && !types.IsInterface(argT.Type)
}

// walkLoopDepth walks the AST under root calling visit(n, depth) with the
// lexical loop depth of each node. Loop conditions and post statements
// execute once per iteration and are visited at body depth; for-init and
// range operands execute once and stay at the enclosing depth, as do the
// ForStmt/RangeStmt nodes themselves. Function literals inherit the depth
// of their enclosing scope (the engine's ForItems/ForChunks bodies run
// once per work item), which is the semantics hotloop documents.
func walkLoopDepth(root ast.Node, visit func(n ast.Node, depth int)) {
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case nil:
				return false
			case *ast.ForStmt:
				visit(m, depth)
				walk(s.Init, depth)
				walk(s.Cond, depth+1)
				walk(s.Post, depth+1)
				walk(s.Body, depth+1)
				return false
			case *ast.RangeStmt:
				visit(m, depth)
				walk(s.X, depth)
				walk(s.Key, depth+1)
				walk(s.Value, depth+1)
				walk(s.Body, depth+1)
				return false
			}
			visit(m, depth)
			return true
		})
	}
	walk(root, 0)
}
