package pointsto

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// loadSrc type-checks src as fixture package example.com/pt and returns
// the solved points-to result.
func loadSrc(t *testing.T, src string) (*Result, *analysis.Package) {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "example.com", "pt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pt.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	l.TestdataRoot = root
	pkg, err := l.LoadFixture("example.com/pt")
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	m := analysis.NewModule([]*analysis.Package{pkg})
	return Of(m), pkg
}

// varByName finds the unique variable named name in pkg.
func varByName(t *testing.T, pkg *analysis.Package, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for id, obj := range pkg.TypesInfo.Defs {
		if v, ok := obj.(*types.Var); ok && id.Name == name {
			if found != nil && found != v {
				t.Fatalf("variable %q is not unique in fixture", name)
			}
			found = v
		}
	}
	if found == nil {
		t.Fatalf("variable %q not found in fixture", name)
	}
	return found
}

// funcByName finds the declared function named name.
func funcByName(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	for id, obj := range pkg.TypesInfo.Defs {
		if fn, ok := obj.(*types.Func); ok && id.Name == name {
			return fn
		}
	}
	t.Fatalf("function %q not found in fixture", name)
	return nil
}

func ids(objs []*Object) map[ObjID]bool {
	out := map[ObjID]bool{}
	for _, o := range objs {
		out[o.ID] = true
	}
	return out
}

func intersects(a, b []*Object) bool {
	bi := ids(b)
	for _, o := range a {
		if bi[o.ID] {
			return true
		}
	}
	return false
}

// allocsOf filters to real allocation sites (no extern/blur noise).
func allocsOf(objs []*Object) []*Object {
	var out []*Object
	for _, o := range objs {
		if o.Kind == KAlloc {
			out = append(out, o)
		}
	}
	return out
}

func TestBasicAliasing(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

func F() {
	a := make([]int32, 4)
	b := a
	c := make([]int32, 4)
	_, _, _ = a, b, c
}
`)
	a := r.VarObjects(varByName(t, pkg, "a"))
	b := r.VarObjects(varByName(t, pkg, "b"))
	c := r.VarObjects(varByName(t, pkg, "c"))
	if !intersects(a, b) {
		t.Error("a and b share a make site but do not alias")
	}
	if intersects(a, c) {
		t.Error("a and c have distinct make sites but alias")
	}
	if len(a) != 1 || a[0].Kind != KAlloc {
		t.Errorf("pts(a) = %v, want exactly its make site", a)
	}
}

func TestFieldSensitivity(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

type P struct{ a, b []int32 }

var ga, gb []int32

func F() {
	p := P{a: make([]int32, 1), b: make([]int32, 1)}
	ga = p.a
	gb = p.b
}
`)
	ga := allocsOf(r.VarObjects(varByName(t, pkg, "ga")))
	gb := allocsOf(r.VarObjects(varByName(t, pkg, "gb")))
	if len(ga) == 0 || len(gb) == 0 {
		t.Fatalf("globals lost their field contents: ga=%v gb=%v", ga, gb)
	}
	if intersects(ga, gb) {
		t.Error("distinct struct fields alias: analysis is not field-sensitive")
	}
}

// TestClosureCapture covers constraint generation on closures: a
// captured slice must flow through the literal's return and the
// indirect call that invokes it.
func TestClosureCapture(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

func F() []int32 {
	s := make([]int32, 4)
	f := func() []int32 { return s }
	return f()
}
`)
	rets := allocsOf(r.ReturnObjects(funcByName(t, pkg, "F"), 0))
	if len(rets) != 1 {
		t.Fatalf("F's return pts = %v, want the captured make site", rets)
	}
	s := r.VarObjects(varByName(t, pkg, "s"))
	if !intersects(rets, s) {
		t.Error("closure-returned slice does not alias the captured variable")
	}
}

// TestMethodValue covers bound-method values: the receiver recorded at
// the `b.Get` evaluation must bind when the value is invoked.
func TestMethodValue(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

type Box struct{ v []int32 }

func (b *Box) Get() []int32 { return b.v }

func G() []int32 {
	b := &Box{v: make([]int32, 1)}
	f := b.Get
	return f()
}
`)
	rets := allocsOf(r.ReturnObjects(funcByName(t, pkg, "G"), 0))
	if len(rets) == 0 {
		t.Fatal("method-value call lost the receiver's field contents")
	}
	for _, o := range rets {
		if _, ok := o.Type.Underlying().(*types.Slice); !ok {
			t.Errorf("G returns non-slice object %v (kind %v)", o.Type, o.Kind)
		}
	}
}

// TestSliceOfSliceStore covers stores through nested element cells:
// rows[0] = r must make loads of rows[i] see r's allocation.
func TestSliceOfSliceStore(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

var leak []int32

func H() {
	rows := make([][]int32, 2)
	inner := make([]int32, 3)
	rows[0] = inner
	leak = rows[1]

	private := make([]int32, 3)
	_ = private
}
`)
	leak := r.VarObjects(varByName(t, pkg, "leak"))
	inner := r.VarObjects(varByName(t, pkg, "inner"))
	if !intersects(leak, inner) {
		t.Error("slice-of-slice store lost: leak should alias inner")
	}
	global := r.Reachable(leak, nil)
	for _, o := range allocsOf(inner) {
		if !global[o] {
			t.Error("inner is not reachable from the package-level var holding it")
		}
	}
	for _, o := range allocsOf(r.VarObjects(varByName(t, pkg, "private"))) {
		if global[o] {
			t.Error("private allocation reachable from package-level state but never shared")
		}
	}
}

// TestInterfaceBoxing covers boxing a concrete value into an interface
// and resolving the interface call from the receiver's points-to set.
func TestInterfaceBoxing(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

type I interface{ M() []int32 }

type T struct{ s []int32 }

func (t T) M() []int32 { return t.s }

func K() []int32 {
	v := T{s: make([]int32, 1)}
	var i I = v
	return i.M()
}
`)
	rets := allocsOf(r.ReturnObjects(funcByName(t, pkg, "K"), 0))
	if len(rets) == 0 {
		t.Fatal("interface call lost the boxed value's field contents")
	}
}

func TestAliasesQuery(t *testing.T) {
	r, pkg := loadSrc(t, `package pt

func F(a []int32) ([]int32, []int32) {
	b := a[1:3]
	c := make([]int32, 2)
	return b, c
}
`)
	fn := funcByName(t, pkg, "F")
	r0 := r.ReturnObjects(fn, 0)
	r1 := r.ReturnObjects(fn, 1)
	a := r.VarObjects(varByName(t, pkg, "a"))
	if !r.MayAlias(r0, a) {
		t.Error("reslice does not alias its base parameter")
	}
	if r.MayAlias(r1, a) {
		t.Error("fresh make aliases an unrelated parameter")
	}
}

// TestCycleTermination drives the raw solver with a pathological
// constraint graph — many interlocked copy rings with loads and stores
// across them — and asserts the SCC collapsing keeps the worklist
// effort bounded.
func TestCycleTermination(t *testing.T) {
	s := NewSolver()
	const rings = 20
	const ringLen = 50
	nodes := make([][]NodeID, rings)
	for i := range nodes {
		nodes[i] = make([]NodeID, ringLen)
		for j := range nodes[i] {
			nodes[i][j] = s.NewNode()
		}
		// Close the ring: n0 <- n1 <- ... <- nk <- n0.
		for j := range nodes[i] {
			s.AddCopy(nodes[i][j], nodes[i][(j+1)%ringLen])
		}
	}
	// Interlock the rings with cross edges both ways (one giant SCC).
	for i := 0; i < rings; i++ {
		s.AddCopy(nodes[i][0], nodes[(i+1)%rings][ringLen/2])
		s.AddCopy(nodes[(i+1)%rings][ringLen/2], nodes[i][0])
	}
	// Objects enter at one point per ring; loads/stores chain the rings
	// through a shared field graph.
	base := s.NewNode()
	for i := 0; i < rings; i++ {
		o := s.NewObject()
		s.AddAddr(nodes[i][i%ringLen], o)
		s.AddStore(base, ElemField, nodes[i][0])
	}
	root := s.NewObject()
	s.AddAddr(base, root)
	sink := s.NewNode()
	s.AddLoad(sink, base, ElemField)

	s.Solve()

	// Every ring node sees every object (one SCC + full interlock).
	want := rings
	for i := range nodes {
		for _, n := range nodes[i] {
			if got := len(s.PointsTo(n)); got != want {
				t.Fatalf("ring node has %d objects, want %d", got, want)
			}
		}
	}
	if got := len(s.PointsTo(sink)); got != want {
		t.Fatalf("sink sees %d objects through load, want %d", got, want)
	}
	st := s.Stats()
	if st.Collapsed == 0 {
		t.Error("pathological cycle graph triggered no SCC collapsing")
	}
	// The bound that matters: effort must stay near-linear in nodes, not
	// quadratic (rings*ringLen*objects ≈ 20k would indicate re-propagation
	// around uncollapsed cycles).
	if limit := 4 * rings * ringLen; st.Iterations > limit {
		t.Errorf("solver took %d iterations on %d nodes (limit %d): cycle collapsing ineffective",
			st.Iterations, st.Nodes, limit)
	}
}

// TestSolverIncremental checks constraints added after a Solve are
// honored by the next Solve — the indirect-call fixpoint depends on it.
func TestSolverIncremental(t *testing.T) {
	s := NewSolver()
	a, b := s.NewNode(), s.NewNode()
	o := s.NewObject()
	s.AddAddr(a, o)
	s.Solve()
	s.AddCopy(b, a)
	s.Solve()
	if !s.Contains(b, o) {
		t.Error("copy edge added after Solve did not propagate")
	}
}

// Contains reports o ∈ pts(n) without materializing the set.
func (s *Solver) Contains(n NodeID, o ObjID) bool {
	if n < 0 {
		return false
	}
	n = s.find(n)
	return s.pts[n].has(int32(o)) || s.delta[n].has(int32(o))
}
