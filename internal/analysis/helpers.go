package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HasPathSuffix reports whether pkgpath equals one of suffixes or ends with
// "/"+suffix. Analyzer scopes are expressed as module-relative suffixes
// ("internal/perfmon") so that both the real module packages and the
// GOPATH-style analysistest fixtures (whose import path IS the suffix)
// match the same rule.
func HasPathSuffix(pkgpath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgpath == s || strings.HasSuffix(pkgpath, "/"+s) {
			return true
		}
	}
	return false
}

// Callee resolves the function or method called by call, or nil for
// builtins, conversions and calls of non-identifier expressions. An
// explicitly instantiated generic callee (rand.N[int64]) resolves to its
// generic function.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsMap reports whether e's type is (an alias of) a map.
func IsMap(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
