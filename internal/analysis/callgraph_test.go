package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkTestPkg type-checks one import-free source file into a Package.
func checkTestPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "pkg.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{PkgPath: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}
}

func findNode(t *testing.T, cg *CallGraph, name string) *CGNode {
	t.Helper()
	for fn, n := range cg.Nodes {
		if fn.Name() == name && n.Decl != nil {
			return n
		}
	}
	t.Fatalf("no declared node %q in call graph", name)
	return nil
}

func hasEdge(from *CGNode, toName, kind string) bool {
	for _, e := range from.Out {
		if e.Callee.Fn.Name() == toName && (kind == "" || e.Kind == kind) {
			return true
		}
	}
	return false
}

func TestCallGraphStaticAndClosures(t *testing.T) {
	pkg := checkTestPkg(t, `package p

func a() { b() }
func b() {}

// c's closure calls d: flattening attributes the call to c itself.
func c(run func(func())) {
	run(func() { d() })
}
func d() {}

// e references f as a value without calling it.
func e(sink func(func())) { sink(f) }
func f() {}
`)
	cg := BuildCallGraph([]*Package{pkg})
	if !hasEdge(findNode(t, cg, "a"), "b", "static") {
		t.Error("missing static edge a -> b")
	}
	if !hasEdge(findNode(t, cg, "c"), "d", "static") {
		t.Error("closure call not flattened into c (missing c -> d)")
	}
	if !hasEdge(findNode(t, cg, "e"), "f", "ref") {
		t.Error("function-value reference e -> f not recorded")
	}
	if hasEdge(findNode(t, cg, "a"), "d", "") {
		t.Error("spurious edge a -> d")
	}
	// Callers recorded symmetrically.
	bNode := findNode(t, cg, "b")
	if len(bNode.In) != 1 || bNode.In[0].Caller.Fn.Name() != "a" {
		t.Errorf("b.In = %v, want exactly one caller a", bNode.In)
	}
}

func TestCallGraphInterfaceCHA(t *testing.T) {
	pkg := checkTestPkg(t, `package p

type closer interface{ close() }

type fileT struct{}
func (fileT) close() {}

type sockT struct{}
func (*sockT) close() {}

type unrelated struct{}
func (unrelated) open() {}

func shutdown(c closer) { c.close() }
`)
	cg := BuildCallGraph([]*Package{pkg})
	sd := findNode(t, cg, "shutdown")
	// CHA must resolve to both implementations (value and pointer
	// receiver) and not to unrelated types.
	var impls []string
	for _, e := range sd.Out {
		if e.Kind == "interface" && e.Callee.Decl != nil {
			impls = append(impls, e.Callee.Fn.FullName())
		}
	}
	if len(impls) != 2 {
		t.Fatalf("CHA resolved %v, want the two close implementations", impls)
	}
	for _, e := range sd.Out {
		if e.Callee.Fn.Name() == "open" {
			t.Error("CHA reached a method of a non-implementing type")
		}
	}
}

// TestCallGraphDeterministic: two builds over the same package produce
// identical declared-node and edge orders.
func TestCallGraphDeterministic(t *testing.T) {
	src := `package p
func a() { b(); c() }
func b() { c() }
func c() {}
`
	pkg := checkTestPkg(t, src)
	shape := func(cg *CallGraph) []string {
		var out []string
		for _, n := range cg.Declared() {
			out = append(out, n.Fn.Name())
			for _, e := range n.Out {
				out = append(out, n.Fn.Name()+"->"+e.Callee.Fn.Name())
			}
		}
		return out
	}
	first := shape(BuildCallGraph([]*Package{pkg}))
	for i := 0; i < 5; i++ {
		next := shape(BuildCallGraph([]*Package{pkg}))
		if len(next) != len(first) {
			t.Fatalf("build %d: %v != %v", i, next, first)
		}
		for j := range next {
			if next[j] != first[j] {
				t.Fatalf("build %d differs at %d: %v != %v", i, j, next, first)
			}
		}
	}
}

// TestCallGraphSpawnKinds: go statements and defer statements tag their
// call edges so the concurrency analyzers can tell a spawn (callee runs
// on a fresh goroutine) from a sequential call.
func TestCallGraphSpawnKinds(t *testing.T) {
	pkg := checkTestPkg(t, `package p

type srv struct{}

func (s *srv) pump()  {}
func (s *srv) flush() {}

func worker() {}
func cleanup() {}

func run(s *srv) {
	go worker()      // spawned package function
	go s.pump()      // spawned method (method-value syntax at the call)
	defer cleanup()  // deferred package function
	defer s.flush()  // deferred method
	worker()         // and a plain sequential call of the same callee
}
`)
	cg := BuildCallGraph([]*Package{pkg})
	run := findNode(t, cg, "run")
	for _, want := range []struct{ callee, kind string }{
		{"worker", "go"},
		{"pump", "go"},
		{"cleanup", "defer"},
		{"flush", "defer"},
		{"worker", "static"},
	} {
		if !hasEdge(run, want.callee, want.kind) {
			t.Errorf("missing %q edge run -> %s", want.kind, want.callee)
		}
	}
	// The spawn edge must not leak onto the sequential call of pump's
	// sibling: flush is only deferred, never static.
	if hasEdge(run, "flush", "static") {
		t.Error("deferred-only callee flush got a static edge")
	}
}

// TestCallGraphDeferredClosure: a closure spawned or deferred is still
// flattened into the enclosing declaration (its body's calls belong to
// the spawner), and the closure's own callees keep static kinds.
func TestCallGraphDeferredClosure(t *testing.T) {
	pkg := checkTestPkg(t, `package p

func logit() {}
func step()  {}

func orchestrate() {
	defer func() { logit() }()
	go func() { step() }()
}
`)
	cg := BuildCallGraph([]*Package{pkg})
	orch := findNode(t, cg, "orchestrate")
	// Flattening: the literal bodies' calls are attributed to
	// orchestrate, as plain static calls — the go/defer kind belongs to
	// the literal's invocation, and calling a literal adds no edge.
	if !hasEdge(orch, "logit", "static") {
		t.Error("deferred closure's call not flattened into orchestrate")
	}
	if !hasEdge(orch, "step", "static") {
		t.Error("spawned closure's call not flattened into orchestrate")
	}
	if hasEdge(orch, "logit", "defer") || hasEdge(orch, "step", "go") {
		t.Error("closure-internal calls must not inherit the spawn kind")
	}
}

// TestCallGraphMethodValueSpawn: `f := s.m; go f()` records the method
// reference as a ref edge.
func TestCallGraphMethodValueSpawn(t *testing.T) {
	pkg := checkTestPkg(t, `package p

type srv struct{}

func (s *srv) serve() {}

func launch(s *srv) {
	f := s.serve
	go f()
}
`)
	cg := BuildCallGraph([]*Package{pkg})
	launch := findNode(t, cg, "launch")
	if !hasEdge(launch, "serve", "ref") {
		t.Error("method value s.serve not recorded as a ref edge")
	}
}
