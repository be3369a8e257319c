// Package overflowconv reports width-reducing integer conversions.
// GraphBIG's CSR builders narrow int loop counters and lengths into the
// int32/uint32 on-disk and in-memory vertex encodings constantly; each
// such T(x) silently wraps when x exceeds T's range, corrupting vertex
// IDs and offsets instead of failing. The rule is syntactic: every
// non-constant narrowing conversion in scope is reported, and the fix is
// a checked helper (narrow.Index32, narrow.Index16, narrow.Size32), which
// panics instead of wrapping. The helpers' own conversions are the
// guarded ones: internal/narrow is outside the scope.
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
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

var scope = []string{
	"internal/property", "internal/loader", "internal/csr",
	"internal/engine", "internal/concurrent", "internal/mem",
	"internal/workloads",
}

var Analyzer = &analysis.Analyzer{
	Name: "overflowconv",
	Doc:  "report non-constant width-reducing integer conversions outside the checked helpers",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.HasPathSuffix(pass.Pkg.Path(), scope...) {
		return nil
	}
	info := pass.TypesInfo
	qual := types.RelativeTo(pass.Pkg)
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		if ctv, ok := info.Types[call]; ok && ctv.Value != nil {
			return true // constant conversion, checked by the compiler
		}
		src, ok := info.Types[call.Args[0]]
		if !ok || !narrowing(src.Type, tv.Type) {
			return true
		}
		var arg bytes.Buffer
		if err := printer.Fprint(&arg, pass.Fset, call.Args[0]); err != nil {
			arg.Reset()
			arg.WriteString("<expr>")
		}
		pass.Report(call.Pos(), "narrowing conversion %s(%s) from %s may wrap silently; use a checked helper (e.g. narrow.Index32)",
			types.TypeString(tv.Type, qual), arg.String(), types.TypeString(src.Type, qual))
		return true
	})
	return nil
}

// wordBits is the width of int/uint on the build platform.
const wordBits = 32 << (^uint(0) >> 63)

// narrowing reports the conversion src -> dst reduces integer width. A
// type parameter is as wide as the widest integer term of its type set on
// the source side and as narrow as the narrowest on the destination side:
// the conversion is reported if some instantiation narrows.
func narrowing(src, dst types.Type) bool {
	sw := intWidth(src, true)
	dw := intWidth(dst, false)
	return sw != 0 && dw != 0 && dw < sw
}

// intWidth returns the bit width of an integer type, 0 for any other.
// int/uint/uintptr use the build platform's width, matching the compiled
// artifact CI checks. For a type parameter it folds the widths of the
// integer terms of its constraint, keeping the widest when wide is set and
// the narrowest otherwise; a constraint without integer terms gives 0.
func intWidth(t types.Type, wide bool) int {
	if tp, ok := t.(*types.TypeParam); ok {
		return termWidth(tp.Constraint(), wide)
	}
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

// termWidth folds intWidth over the terms of a constraint: the types its
// unions name and those of the interfaces it embeds.
func termWidth(t types.Type, wide bool) int {
	var terms []types.Type
	switch u := t.Underlying().(type) {
	case *types.Interface:
		for i := range u.NumEmbeddeds() {
			terms = append(terms, u.EmbeddedType(i))
		}
	case *types.Union:
		for i := range u.Len() {
			terms = append(terms, u.Term(i).Type())
		}
	default:
		return intWidth(t, wide)
	}
	w := 0
	for _, term := range terms {
		if tw := termWidth(term, wide); tw != 0 && (w == 0 || (tw > w) == wide) {
			w = tw
		}
	}
	return w
}
