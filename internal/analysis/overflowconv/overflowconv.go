// Package overflowconv reports width-reducing integer conversions that
// no dominating guard justifies. GraphBIG's CSR builders narrow int
// loop counters and lengths into the int32/uint32 on-disk and in-memory
// vertex encodings constantly; each such T(x) silently wraps when x
// exceeds T's range, corrupting vertex IDs and offsets instead of
// failing. The value-range analysis discharges the conversions that a
// guard (if n > math.MaxInt32 { ... }), a loop bound, or a length link
// provably covers; everything else is reported with the guarded-helper
// idiom as the fix.
//
// Only width-reducing conversions are checked (int -> int32 yes,
// int64 -> uint64 no): same-width sign flips are deliberate bit
// reinterpretations in hashing and encoding code, and widening is
// always value-preserving. Constant conversions are skipped — the type
// checker already rejects out-of-range constants.
package overflowconv

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

var scope = []string{
	"internal/property", "internal/loader", "internal/csr",
	"internal/engine", "internal/concurrent", "internal/mem",
	"internal/workloads",
}

var Analyzer = &analysis.Analyzer{
	Name:      "overflowconv",
	Doc:       "report width-reducing integer conversions without a dominating range guard",
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
		walkUnits(n.Decl, func(m ast.Node, unit ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return
			}
			tv, ok := info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return
			}
			if ctv, ok := info.Types[call]; ok && ctv.Value != nil {
				return // constant conversion, checked by the compiler
			}
			src, sok := info.Types[call.Args[0]]
			if !sok || !narrowing(src.Type, tv.Type) {
				return
			}
			fr := ri.ForFunc(n.Pkg, unit)
			env := fr.EnvAt(call.Pos())
			if env == nil {
				return
			}
			if ok, iv := fr.ProveFits(env, call.Args[0], tv.Type); !ok {
				fset := mp.Module.Fset
				msg := "narrowing conversion " + types.TypeString(tv.Type, types.RelativeTo(n.Pkg.Types)) +
					"(" + exprString(fset, call.Args[0]) +
					") from " + types.TypeString(src.Type, types.RelativeTo(n.Pkg.Types)) +
					" may wrap silently; guard the range first or use a checked helper (e.g. property.Index32)"
				if analysis.DebugEnabled() {
					msg += "; inferred operand range " + iv.String()
				}
				mp.Report(call.Pos(), "%s", msg)
			}
		})
	}
	return nil
}

// wordBits is the width of int/uint on the build platform.
const wordBits = 32 << (^uint(0) >> 63)

// narrowing reports the conversion src -> dst reduces integer width.
func narrowing(src, dst types.Type) bool {
	sw := intWidth(src)
	dw := intWidth(dst)
	return sw != 0 && dw != 0 && dw < sw
}

// intWidth returns the bit width of an integer basic type, 0 otherwise.
// int/uint/uintptr use the build platform's width, matching the
// compiled artifact CI checks.
func intWidth(t types.Type) int {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int64, types.Uint64:
		return 64
	case types.Int, types.Uint, types.Uintptr:
		return wordBits
	}
	return 0
}

// walkUnits visits every node under decl with its innermost function
// unit: decl itself, or the nearest enclosing FuncLit. Range facts are
// per unit, so a conversion inside a closure is queried against the
// closure's own facts.
func walkUnits(decl *ast.FuncDecl, visit func(n ast.Node, unit ast.Node)) {
	var walk func(n ast.Node, unit ast.Node)
	walk = func(n ast.Node, unit ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				visit(m, unit)
				walk(lit.Body, lit)
				return false
			}
			if m != nil {
				visit(m, unit)
			}
			return m != nil
		})
	}
	walk(decl.Body, decl)
}

// exprString renders an expression for a finding message.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "<expr>"
	}
	return buf.String()
}
