package ssa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// buildTestFunc type-checks src (package clause added; builtins only)
// and returns the SSA form of the named function.
func buildTestFunc(t *testing.T, src, name string) *Func {
	t.Helper()
	full := "package p\n" + src
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ssa_src_test.go", full, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type error: %v", err)
	}
	pkg := &analysis.Package{PkgPath: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
	m := analysis.NewModule([]*analysis.Package{pkg})
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return Of(m).FuncOf(pkg, fd)
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// lastUse returns the reaching definition of the last (by position) use
// of the named variable.
func lastUse(t *testing.T, fn *Func, name string) *Def {
	t.Helper()
	var best *ast.Ident
	var bestDef *Def
	for _, d := range fn.Defs {
		for _, u := range d.Uses {
			if u.Name == name && (best == nil || u.Pos() > best.Pos()) {
				best, bestDef = u, d
			}
		}
	}
	if best == nil {
		t.Fatalf("no tracked use of %q", name)
	}
	return bestDef
}

func phiCount(fn *Func) int {
	n := 0
	for _, d := range fn.Defs {
		if d.Kind == DefPhi {
			n++
		}
	}
	return n
}

func litString(e ast.Expr) string {
	if bl, ok := e.(*ast.BasicLit); ok {
		return bl.Value
	}
	return ""
}

func TestSSAStraightLine(t *testing.T) {
	fn := buildTestFunc(t, `
func f() int {
	x := 1
	x = 2
	return x
}`, "f")
	d := lastUse(t, fn, "x")
	if d.Kind != DefAssign || litString(d.Rhs) != "2" {
		t.Fatalf("return x resolved to kind %v rhs %v, want the x = 2 def", d.Kind, d.Rhs)
	}
	if phiCount(fn) != 0 {
		t.Fatalf("straight-line code got %d phis", phiCount(fn))
	}
}

func TestSSADiamondPhi(t *testing.T) {
	fn := buildTestFunc(t, `
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`, "f")
	d := lastUse(t, fn, "x")
	if d.Kind != DefPhi {
		t.Fatalf("return x resolved to kind %v, want phi", d.Kind)
	}
	vals := map[string]bool{}
	for _, a := range d.Args {
		if a != nil && a.Rhs != nil {
			vals[litString(a.Rhs)] = true
		}
	}
	if !vals["1"] || !vals["2"] {
		t.Fatalf("phi args = %v, want {1, 2}", vals)
	}
}

func TestSSALoopPhi(t *testing.T) {
	fn := buildTestFunc(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	if d := lastUse(t, fn, "s"); d.Kind != DefPhi {
		t.Fatalf("return s resolved to %v, want loop-head phi", d.Kind)
	}
	// The i < n condition reads the phi merging i's init and increment.
	var condUse *Def
	for _, d := range fn.Defs {
		for _, u := range d.Uses {
			if u.Name == "i" {
				if condUse == nil || u.Pos() < condUse.Uses[0].Pos() {
					condUse = d
				}
			}
		}
	}
	if condUse == nil || condUse.Kind != DefPhi {
		t.Fatalf("loop condition use of i is %+v, want phi", condUse)
	}
}

func TestSSAPrunedPhi(t *testing.T) {
	// x is dead at the join, so pruned SSA places no phi at all.
	fn := buildTestFunc(t, `
func f(c bool) int {
	x := 1
	if c {
		x = 2
		return x
	}
	return 0
}`, "f")
	if n := phiCount(fn); n != 0 {
		t.Fatalf("dead-at-join variable produced %d phis, want 0", n)
	}
	if d := lastUse(t, fn, "x"); litString(d.Rhs) != "2" {
		t.Fatalf("then-branch use resolved to %v, want 2", d.Rhs)
	}
}

func TestSSAUnversioned(t *testing.T) {
	fn := buildTestFunc(t, `
func f() int {
	x := 1
	p := &x
	_ = p
	y := 2
	g := func() { y = 3 }
	g()
	return x + y
}`, "f")
	found := map[string]bool{}
	for v := range fn.Unversioned {
		found[v.Name()] = true
	}
	if !found["x"] || !found["y"] {
		t.Fatalf("Unversioned = %v, want x (address-taken) and y (closure-assigned)", found)
	}
	for id := range fn.UseDef {
		if id.Name == "x" || id.Name == "y" {
			t.Fatalf("unversioned %s still has a UseDef entry", id.Name)
		}
	}
}

func TestSSARangeAndOpAssign(t *testing.T) {
	fn := buildTestFunc(t, `
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`, "f")
	if d := lastUse(t, fn, "v"); d.Kind != DefRange {
		t.Fatalf("use of v resolved to %v, want range def", d.Kind)
	}
	// s += v redefines s opaquely; that def feeds the loop-head phi.
	ret := lastUse(t, fn, "s")
	if ret.Kind != DefPhi {
		t.Fatalf("return s is %v, want phi", ret.Kind)
	}
	kinds := map[DefKind]bool{}
	for _, a := range ret.Args {
		if a != nil {
			kinds[a.Kind] = true
		}
	}
	if !kinds[DefAssign] || !kinds[DefOpaque] {
		t.Fatalf("phi arg kinds = %v, want init assign + op-assign", kinds)
	}
}

func TestSSACapturedReadResolves(t *testing.T) {
	// A closure that only reads y sees the version live where the
	// closure is written.
	fn := buildTestFunc(t, `
func use(func() int) {}
func f() {
	y := 1
	use(func() int { return y })
	y = 2
	_ = y
}`, "f")
	var captured *Def
	for _, d := range fn.Defs {
		for _, u := range d.Uses {
			if u.Name == "y" && captured == nil {
				captured = d // first use in source order is the captured read
			}
		}
	}
	if captured == nil || litString(captured.Rhs) != "1" {
		t.Fatalf("captured read resolved to %+v, want y := 1", captured)
	}
}

func TestSSAFixpointConstants(t *testing.T) {
	fn := buildTestFunc(t, `
func f(c bool) (int, int) {
	x := 1
	y := x
	z := y
	if c {
		z = 2
	}
	return y, z
}`, "f")
	type fact struct {
		state int // 0 bottom, 1 const, 2 top
		val   string
	}
	eval := func(d *Def, get func(*Def) fact) fact {
		switch d.Kind {
		case DefAssign:
			if s := litString(d.Rhs); s != "" {
				return fact{1, s}
			}
			if id, ok := d.Rhs.(*ast.Ident); ok {
				if src, ok := fn.UseDef[id]; ok {
					return get(src)
				}
			}
			return fact{2, ""}
		case DefPhi:
			out := fact{}
			for _, a := range d.Args {
				if a == nil {
					continue
				}
				av := get(a)
				switch {
				case av.state == 0:
				case out.state == 0:
					out = av
				case av.state != out.state || av.val != out.val:
					out = fact{2, ""}
				}
			}
			return out
		default:
			return fact{2, ""}
		}
	}
	vals := fixpoint(fn, fact{}, func(a, b fact) bool { return a == b }, eval)
	if got := vals[lastUse(t, fn, "y")]; got != (fact{1, "1"}) {
		t.Fatalf("y fact = %+v, want const 1", got)
	}
	if got := vals[lastUse(t, fn, "z")]; got.state != 2 {
		t.Fatalf("z fact = %+v, want top (1 meet 2)", got)
	}
}

// fixpoint runs sparse forward fact propagation over fn's definitions:
// every Def starts at bottom, eval recomputes a Def's fact from the
// facts of the definitions it depends on (phi arguments, reaching
// definitions of identifiers in its Rhs), and changed facts requeue
// their Dependents until the map is stable. eval must be monotone over
// a finite-height lattice for termination; get returns bottom for
// definitions not yet evaluated.
func fixpoint[F any](fn *Func, bottom F, equal func(a, b F) bool, eval func(d *Def, get func(*Def) F) F) map[*Def]F {
	vals := make(map[*Def]F, len(fn.Defs))
	get := func(d *Def) F {
		if d == nil {
			return bottom
		}
		if v, ok := vals[d]; ok {
			return v
		}
		return bottom
	}
	inWork := make(map[*Def]bool, len(fn.Defs))
	work := make([]*Def, 0, len(fn.Defs))
	for _, d := range fn.Defs {
		work = append(work, d)
		inWork[d] = true
	}
	for len(work) > 0 {
		d := work[0]
		work = work[1:]
		inWork[d] = false
		nv := eval(d, get)
		if equal(nv, get(d)) {
			vals[d] = nv
			continue
		}
		vals[d] = nv
		for _, e := range fn.Dependents(d) {
			if !inWork[e] {
				inWork[e] = true
				work = append(work, e)
			}
		}
	}
	return vals
}
