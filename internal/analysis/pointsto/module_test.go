package pointsto

import (
	"go/types"
	"testing"
	"time"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// TestRealModule runs the analysis over the whole graphbig module: it
// must terminate quickly, and the query aliasleak's frozen set is built
// on — the set of objects reachable from a published View — must be
// non-trivial.
func TestRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module")
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("github.com/graphbig/graphbig-go/...")
	if err != nil {
		t.Fatal(err)
	}
	m := analysis.NewModule(pkgs)
	start := time.Now()
	r := Of(m)
	elapsed := time.Since(start)
	t.Logf("analyze: %v", elapsed)
	if elapsed > 30*time.Second {
		t.Errorf("points-to analysis took %v on the module; solver regression", elapsed)
	}

	// The published-view root: ViewWith's return must point somewhere.
	var viewWith *types.Func
	for _, pkg := range pkgs {
		if !analysis.HasPathSuffix(pkg.PkgPath, "internal/property") {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func); ok && name == "ViewWith" {
				viewWith = fn
			}
		}
		// ViewWith is a method on *Graph.
		if viewWith == nil {
			if g, ok := pkg.Types.Scope().Lookup("Graph").(*types.TypeName); ok {
				named := g.Type().(*types.Named)
				for i := 0; i < named.NumMethods(); i++ {
					if named.Method(i).Name() == "ViewWith" {
						viewWith = named.Method(i)
					}
				}
			}
		}
	}
	if viewWith == nil {
		t.Fatal("ViewWith not found in internal/property")
	}
	rets := r.ReturnObjects(viewWith, 0)
	if len(rets) == 0 {
		t.Fatal("ViewWith's return has an empty points-to set")
	}
	frozen := r.Reachable(rets, func(o *Object) bool {
		return o.Type != nil && analysis.NamedIn(o.Type, "Vertex", "internal/property")
	})
	if len(frozen) < len(rets) || len(frozen) < 5 {
		t.Errorf("published-view closure has %d objects; expected the View and its CSR arrays", len(frozen))
	}
}
