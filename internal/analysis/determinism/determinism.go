// Package determinism enforces the reproducibility invariant behind the
// golden parity suite (internal/workloads/testdata/parity.json): every
// instrumented run must emit a bit-identical framework-primitive event
// stream, and every report/serialization path must print identically run
// to run. Three sources of silent nondeterminism are banned in the
// parity-critical packages:
//
//   - ranging over a map (Go randomizes iteration order per run), or
//     over maps.Keys, maps.Values or maps.All of one, which yield in
//     the same order — except the canonical key-collection loop
//     `for k := range m { keys = append(keys, k) }`, whose result is
//     order-insensitive once sorted, and which is exactly the rewrite
//     this analyzer's diagnostic asks for;
//   - using time.Now, time.Since or time.Until, called or taken as a
//     value (`clock := time.Now`, or passed as an argument): wall-clock
//     values leak into simulated state;
//   - using math/rand package-level functions, called or taken as a value
//     (globally seeded; the suite threads explicit seeds through
//     rand.New(rand.NewPCG(...))).
//
// Output-only packages (harness reports, cmd front-ends) legitimately
// measure wall-clock time, so they are held to the map-iteration rule
// only.
//
// This analyzer is intraprocedural: it flags the sin at its source line,
// inside the parity scope. A sin laundered through a helper outside the
// scope is left to the golden parity tests, which caught every such row of
// the catch matrix (results/vet_catch_matrix.json).
package determinism

import (
	"go/ast"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// parityScope lists the packages whose execution must be bit-reproducible:
// the tracker/simulation pipeline (perfmon, cachesim, simt), everything
// that feeds it (workloads, gen, bayes), and the dataset serializer/stats
// used by golden files.
var parityScope = []string{
	"internal/perfmon",
	"internal/simt",
	"internal/cachesim",
	"internal/workloads",
	"internal/loader",
	"internal/stats",
	"internal/gen",
	"internal/bayes",
}

// outputScope lists report/CLI packages whose printed output must be
// stable across runs (map iteration only; wall-clock use is their job).
var outputScope = []string{
	"internal/harness",
	"cmd/graphbig",
	"cmd/graphbig-bench",
	"cmd/graphbig-gen",
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid map iteration, wall-clock reads and global math/rand in parity-critical packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	parity := analysis.HasPathSuffix(pass.Pkg.Path(), parityScope...)
	output := analysis.HasPathSuffix(pass.Pkg.Path(), outputScope...)
	if !parity && !output {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isKeyCollectionRange(n) {
				return true
			}
			if analysis.IsMap(pass.TypesInfo, n.X) {
				pass.Report(n.Pos(), "range over map is nondeterministically ordered; iterate a sorted key slice instead")
			} else if it := mapIterator(pass.TypesInfo, n.X); it != "" {
				pass.Report(n.Pos(), "range over %s is nondeterministically ordered; iterate a sorted key slice instead", it)
			}
		case *ast.Ident:
			if !parity {
				return true
			}
			switch c := nondeterministicUse(pass.TypesInfo, n); c {
			case "":
			case "the global math/rand source":
				pass.Report(n.Pos(), "global math/rand source is unseeded across runs; use an explicit rand.New(rand.NewPCG(seed, ...))")
			default:
				pass.Report(n.Pos(), "%s in a parity-critical package makes runs irreproducible; thread timestamps in from the caller", c)
			}
		}
		return true
	})
	return nil
}

// isKeyCollectionRange recognizes `for k := range m { s = append(s, k) }`:
// keys only (no value binding) and a body that is exactly one append of
// the key onto a slice. The result is order-insensitive once sorted, so
// it is exempt — it is exactly the rewrite the diagnostic asks for.
func isKeyCollectionRange(n *ast.RangeStmt) bool {
	if n.Value != nil || n.Body == nil || len(n.Body.List) != 1 {
		return false
	}
	key, ok := n.Key.(*ast.Ident)
	if !ok {
		return false
	}
	asg, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// mapIterator returns "maps.Keys", "maps.Values" or "maps.All" when x
// calls that function, whose iterator yields in map order, and "" for
// anything else.
func mapIterator(info *types.Info, x ast.Expr) string {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return ""
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return "maps." + fn.Name()
	}
	return ""
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators; everything else at package level draws from the
// globally seeded source.
var randConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewSource": true,
	"NewZipf": true, "NewChaCha8": true,
}

// nondeterministicUse classifies a reference to a function as a
// reproducibility hazard: it returns "time.Now", "time.Since" or
// "time.Until" for wall-clock reads, "the global math/rand source" for
// package-level math/rand draws, or "" for anything else. It looks at the
// identifier that names the function, so a call site and a function value
// each report once.
func nondeterministicUse(info *types.Info, id *ast.Ident) string {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return "the global math/rand source"
		}
	}
	return ""
}
