// Package boundscheck reports slice and array indexing on the CSR hot
// paths that the value-range analysis cannot prove in bounds. Every
// unproven index in a nested loop is a per-element branch the compiler
// keeps (see cmd/graphbig-ratchet for the ground truth): the Go compiler's
// BCE pass works from the same kind of facts this analyzer's prover
// does, so an index that is provable here is one the compiler can
// usually eliminate, and an unprovable one is both a latent panic site
// and a retained check.
//
// Scope and noise control:
//
//   - Only loop depth >= 2 in the hot packages (internal/engine,
//     internal/csr, internal/concurrent, internal/workloads) — the
//     per-edge inner loops of traversals, where a retained check is
//     paid |E| times.
//   - Only bases the prover can reason about: local/parameter slice
//     identifiers and arrays. An index through a field or a call result
//     can never be proven (aliasing), and the fix is the same one the
//     hint suggests — re-slice into a local first.
//   - Data-dependent indexes are exempt: an index derived from loaded
//     data (a slice element, a range value, a call result, a field)
//     is a property of the graph, not of the loop structure; CSR
//     neighbor IDs are the canonical case. Bounds there are the
//     loader's validation contract, not the kernel's.
//
// The suggested fixes are the two idioms the range analysis (and the
// compiler) understands: re-slice the operand to the loop extent
// (d := s[lo:hi] then range d), or assert the extent once before the
// loop (_ = s[n-1]).
package boundscheck

import (
	"go/ast"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

var scope = []string{"internal/engine", "internal/csr", "internal/concurrent", "internal/workloads"}

// hot mirrors hotloop: findings fire at lexical loop depth >= 2.
const hot = 2

var Analyzer = &analysis.Analyzer{
	Name:      "boundscheck",
	Doc:       "report hot-loop slice indexing not provably in bounds (retained bounds checks / latent panics)",
	RunModule: run,
}

func run(mp *analysis.ModulePass) error {
	cg := mp.Module.CallGraph()
	ri := mp.Module.Ranges()
	for _, n := range cg.Declared() {
		if !analysis.HasPathSuffix(n.Pkg.PkgPath, scope...) || n.Decl.Body == nil {
			continue
		}
		info := n.Pkg.TypesInfo
		derived := dataDerived(info, n.Decl)
		analysis.WalkUnits(n.Decl, func(m ast.Node, depth int, unit ast.Node) {
			x, ok := m.(*ast.IndexExpr)
			if !ok || depth < hot {
				return
			}
			if !provableBase(info, x.X) || dataDependent(info, derived, x.Index) {
				return
			}
			fr := ri.ForFunc(n.Pkg, unit)
			env := fr.EnvAt(x.Pos())
			if env == nil {
				return // unreachable
			}
			if ok, iv := fr.ProveIndex(env, x.Index, x.X); !ok {
				fset := mp.Module.Fset
				msg := "index " + analysis.ExprString(fset, x.Index) +
					" not provably within len(" + analysis.ExprString(fset, x.X) +
					") in a nested hot loop; re-slice to the loop extent (s := s[lo:hi]) or hint the bound before the loop (_ = s[n-1])"
				if analysis.DebugEnabled() {
					msg += "; inferred index range " + iv.String()
				}
				mp.Report(x.Pos(), "%s", msg)
			}
		})
	}
	return nil
}

// provableBase reports the index base is something the range analysis
// has a length story for: an identifier of slice type, or any array /
// pointer-to-array expression (static length).
func provableBase(info *types.Info, base ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(base)]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Array:
		return true
	case *types.Pointer:
		_, isArr := t.Elem().Underlying().(*types.Array)
		return isArr
	case *types.Slice:
		_, isIdent := ast.Unparen(base).(*ast.Ident)
		return isIdent
	}
	return false
}

// dataDerived computes the set of local variables whose value flows
// from loaded data: range values, slice/map element loads, field reads
// and call results (len/cap excepted), closed transitively through
// assignments.
func dataDerived(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	derived := map[types.Object]bool{}
	obj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := info.Defs[id]; o != nil {
			return o
		}
		return info.Uses[id]
	}
	for changed := true; changed; {
		changed = false
		mark := func(e ast.Expr) {
			if o := obj(e); o != nil && !derived[o] {
				derived[o] = true
				changed = true
			}
		}
		ast.Inspect(decl.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.RangeStmt:
				// The key is an induction variable; the value is data.
				if s.Value != nil {
					mark(s.Value)
				}
				if s.Key != nil {
					if tv, ok := info.Types[s.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							mark(s.Key)
						}
					}
				}
			case *ast.AssignStmt:
				for i, r := range s.Rhs {
					if !exprIsData(info, derived, r) {
						continue
					}
					if len(s.Lhs) == len(s.Rhs) {
						mark(s.Lhs[i])
					} else {
						for _, l := range s.Lhs {
							mark(l)
						}
					}
				}
			}
			return true
		})
	}
	return derived
}

// exprIsData reports that e's value comes (in part) from loaded data.
func exprIsData(info *types.Info, derived map[types.Object]bool, e ast.Expr) bool {
	data := false
	ast.Inspect(e, func(m ast.Node) bool {
		if data {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IndexExpr, *ast.SelectorExpr:
			data = true
		case *ast.CallExpr:
			// Conversions and len/cap preserve the data-ness of their
			// operand; other calls produce data themselves.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return true
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isB := info.Uses[id].(*types.Builtin); isB {
					return true
				}
			}
			data = true
		case *ast.Ident:
			if o := info.Uses[x]; o != nil && derived[o] {
				data = true
			}
		}
		return !data
	})
	return data
}

// dataDependent reports the index expression is data-derived and so
// exempt: it loads data directly or mentions a data-derived variable.
func dataDependent(info *types.Info, derived map[types.Object]bool, idx ast.Expr) bool {
	return exprIsData(info, derived, idx)
}
