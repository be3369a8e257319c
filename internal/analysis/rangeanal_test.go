package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"strconv"
	"strings"
	"testing"
)

// symObjForTest builds a standalone slice variable for pure-lattice
// symbolic-bound tests.
func symObjForTest(t *testing.T, name string) types.Object {
	t.Helper()
	return types.NewVar(token.NoPos, nil, name, types.NewSlice(types.Typ[types.Int]))
}

// rangeUnit parses and type-checks src (one or more declarations; only
// builtins may be referenced) and runs the range analysis over the
// first function declaration.
type rangeUnit struct {
	t    *testing.T
	src  string
	fset *token.FileSet
	file *ast.File
	info *types.Info
	fd   *ast.FuncDecl
	fr   *FuncRanges
}

func buildRangeUnit(t *testing.T, src string) *rangeUnit {
	t.Helper()
	full := "package p\n" + src
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "range_test.go", full, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Implicits: map[ast.Node]types.Object{},
		Scopes:    map[ast.Node]*types.Scope{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type error: %v", err)
	}
	ru := &rangeUnit{t: t, src: full, fset: fset, file: f, info: info}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			ru.fd = fd
			break
		}
	}
	if ru.fd == nil {
		t.Fatal("no function in source")
	}
	ru.fr = analyzeUnit(info, ru.fd)
	return ru
}

// pos returns the position of the first occurrence of marker in the
// source.
func (ru *rangeUnit) pos(marker string) token.Pos {
	idx := strings.Index(ru.src, marker)
	if idx < 0 {
		ru.t.Fatalf("marker %q not in source", marker)
	}
	return ru.file.FileStart + token.Pos(idx)
}

// envAt returns the environment just before the statement at marker,
// failing the test on unreachable positions.
func (ru *rangeUnit) envAt(marker string) *Env {
	env := ru.fr.EnvAt(ru.pos(marker))
	if env == nil {
		ru.t.Fatalf("unreachable at %q", marker)
	}
	return env
}

// ivOf looks up the tracked interval of the variable named name.
func (ru *rangeUnit) ivOf(env *Env, name string) Interval {
	for id, o := range ru.info.Defs {
		if o == nil || id.Name != name {
			continue
		}
		if v, ok := o.(*types.Var); ok && !v.IsField() {
			if iv, ok := env.vars[o]; ok {
				return iv
			}
			return Full()
		}
	}
	ru.t.Fatalf("no variable %q defined", name)
	return Full()
}

// indexExprAt returns the index expression starting at marker.
func (ru *rangeUnit) indexExprAt(marker string) *ast.IndexExpr {
	pos := ru.pos(marker)
	var found *ast.IndexExpr
	ast.Inspect(ru.fd, func(n ast.Node) bool {
		if x, ok := n.(*ast.IndexExpr); ok && x.Pos() == pos {
			found = x
		}
		return found == nil
	})
	if found == nil {
		ru.t.Fatalf("no index expression at %q", marker)
	}
	return found
}

func (ru *rangeUnit) proveIndexAt(marker string) (bool, Interval) {
	x := ru.indexExprAt(marker)
	env := ru.envAt(marker)
	return ru.fr.ProveIndex(env, x.Index, x.X)
}

// TestWideningTermination: nested loops with coupled counters must
// reach a fixed point (the widening delay is 2, so an infinite climb
// would hang the solver), and the widened facts must stay sound: the
// inner counter keeps its zero lower bound and its upper bound from
// the loop condition.
func TestWideningTermination(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			s = s + j
		}
	}
	return s
}
`)
	env := ru.envAt("s = s + j")
	j := ru.ivOf(env, "j")
	if j.Lo.String() != "0" {
		t.Errorf("j.Lo = %s, want 0", j.Lo)
	}
	if j.Hi.String() != "i-1" {
		t.Errorf("j.Hi = %s, want i-1", j.Hi)
	}
	i := ru.ivOf(env, "i")
	if i.Lo.String() != "j+1" { // j < i on the loop edge
		t.Errorf("i.Lo = %s, want j+1", i.Lo)
	}
}

// TestBranchRefinement: comparison edges refine both operands; the
// false edge applies the negated operator.
func TestBranchRefinement(t *testing.T) {
	// Endpoints a refinement never touched stay at the variable's type
	// range (MIN/MAX below), not at infinity.
	tests := []struct {
		name string
		body string // statement list; query i at "_ = i"
		want string
	}{
		{"lss true", "if i < 10 { _ = i }", "[MIN, 9]"},
		{"leq true", "if i <= 10 { _ = i }", "[MIN, 10]"},
		{"gtr true", "if i > 10 { _ = i }", "[11, MAX]"},
		{"geq true", "if i >= 10 { _ = i }", "[10, MAX]"},
		{"eql true", "if i == 10 { _ = i }", "[10, 10]"},
		{"lss false", "if i < 10 { } else { _ = i }", "[10, MAX]"},
		{"geq false", "if i >= 10 { } else { _ = i }", "[MIN, 9]"},
		{"reversed operands", "if 10 > i { _ = i }", "[MIN, 9]"},
		{"neq at edge", "if i >= 0 { if i != 0 { _ = i } }", "[1, MAX]"},
		{"chained and", "if i >= 2 { if i <= 5 { _ = i } }", "[2, 5]"},
		{"offset operand", "if i+1 < 10 { _ = i }", "[MIN, 8]"},
		{"negated cond", "if !(i < 10) { _ = i }", "[10, MAX]"},
	}
	expand := strings.NewReplacer(
		"MIN", strconv.FormatInt(math.MinInt64, 10),
		"MAX", strconv.FormatInt(math.MaxInt64, 10),
	)
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ru := buildRangeUnit(t, "func f(i int) {\n"+tc.body+"\n}\n")
			env := ru.envAt("_ = i")
			if got := ru.ivOf(env, "i").String(); got != expand.Replace(tc.want) {
				t.Errorf("i = %s, want %s", got, expand.Replace(tc.want))
			}
		})
	}
}

// TestLenRefinement: length guards refine the length map and make
// indexing provable through the symbolic link n = len(vs).
func TestLenRefinement(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(vs []int) int {
	if len(vs) > 0 {
		return vs[0]
	}
	return 0
}
`)
	ok, iv := ru.proveIndexAt("vs[0]")
	if !ok {
		t.Errorf("vs[0] under len(vs) > 0 guard should be provable (iv=%s)", iv)
	}

	ru = buildRangeUnit(t, `
func f(vs []int) int {
	return vs[0]
}
`)
	if ok, _ := ru.proveIndexAt("vs[0]"); ok {
		t.Error("vs[0] without a guard must not be provable")
	}
}

// TestRangeLoopIndexing: range-over-slice binds the key below the
// operand's length; a second slice guarded to the same length is
// provable through the n = len(..) equality chain.
func TestRangeLoopIndexing(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(vs []int) int {
	s := 0
	for i := range vs {
		s += vs[i]
	}
	return s
}
`)
	if ok, iv := ru.proveIndexAt("vs[i]"); !ok {
		t.Errorf("vs[i] in range loop should be provable (iv=%s)", iv)
	}
}

// TestCountedLoopWithHint: the documented `_ = s[n-1]` hint makes a
// counted loop provable even when n's relation to len(s) is otherwise
// unknown.
func TestCountedLoopWithHint(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(s []int, n int) int {
	acc := 0
	if n > 0 {
		_ = s[n-1]
		for i := 0; i < n; i++ {
			acc += s[i]
		}
	}
	return acc
}
`)
	if ok, iv := ru.proveIndexAt("s[i]"); !ok {
		t.Errorf("s[i] under the s[n-1] hint should be provable (iv=%s)", iv)
	}

	// Without the hint the same loop must not verify.
	ru = buildRangeUnit(t, `
func f(s []int, n int) int {
	acc := 0
	for i := 0; i < n; i++ {
		acc += s[i]
	}
	return acc
}
`)
	if ok, _ := ru.proveIndexAt("s[i]"); ok {
		t.Error("s[i] without a hint must not be provable")
	}
}

// TestLenAliasLoop: the canonical n := len(vs) loop header.
func TestLenAliasLoop(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(vs []int) int {
	s := 0
	n := len(vs)
	for i := 0; i < n; i++ {
		s += vs[i]
	}
	return s
}
`)
	if ok, iv := ru.proveIndexAt("vs[i]"); !ok {
		t.Errorf("vs[i] bounded by n := len(vs) should be provable (iv=%s)", iv)
	}
}

// TestReslicedView: indexing a reslice of matching extent — the shape
// the engine hot loops use after the bounds-hint rewrite.
func TestReslicedView(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(dist []int, lo, hi int) {
	d := dist[lo:hi]
	for i := range d {
		d[i] = -1
	}
}
`)
	if ok, iv := ru.proveIndexAt("d[i]"); !ok {
		t.Errorf("d[i] over range d should be provable (iv=%s)", iv)
	}
}

// TestConversionTransfers: conversions are value-preserving when the
// operand provably fits, and degrade to the target's type range when
// it may not.
func TestConversionTransfers(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // interval of x at "_ = x"
	}{
		{
			"guarded narrow keeps range",
			`func f(i int) {
				if i >= 0 {
					if i < 100 {
						x := int32(i)
						_ = x
					}
				}
			}`,
			"[0, 99]",
		},
		{
			"unguarded narrow gets type range",
			`func f(i int) {
				x := int32(i)
				_ = x
			}`,
			"[-2147483648, 2147483647]",
		},
		{
			"widening conversion keeps range",
			`func f(i int32) {
				var x int64
				if i > 0 {
					x = int64(i)
					_ = x
				}
				_ = x
			}`,
			"[1, 2147483647]",
		},
		{
			"uint8 type range",
			`func f(b uint8) {
				x := int(b)
				_ = x
			}`,
			"[0, 255]",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ru := buildRangeUnit(t, tc.src)
			env := ru.envAt("_ = x")
			if got := ru.ivOf(env, "x").String(); got != tc.want {
				t.Errorf("x = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestProveFitsGuard: the guard shape the overflowconv fixes use.
func TestProveFitsGuard(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(n int) int32 {
	if n < 0 {
		return 0
	}
	if n > 2147483647 {
		return 0
	}
	return int32(n)
}
`)
	env := ru.envAt("return int32(n)")
	var conv *ast.CallExpr
	ast.Inspect(ru.fd, func(nd ast.Node) bool {
		if c, ok := nd.(*ast.CallExpr); ok && conv == nil {
			conv = c
		}
		return conv == nil
	})
	ok, iv := ru.fr.ProveFits(env, conv.Args[0], types.Typ[types.Int32])
	if !ok {
		t.Errorf("guarded int32(n) should fit (iv=%s)", iv)
	}

	ru = buildRangeUnit(t, `
func f(n int) int32 {
	if n < 0 {
		return 0
	}
	return int32(n)
}
`)
	env = ru.envAt("return int32(n)")
	conv = nil
	ast.Inspect(ru.fd, func(nd ast.Node) bool {
		if c, ok := nd.(*ast.CallExpr); ok && conv == nil {
			conv = c
		}
		return conv == nil
	})
	if ok, _ := ru.fr.ProveFits(env, conv.Args[0], types.Typ[types.Int32]); ok {
		t.Error("half-guarded int32(n) must not fit")
	}
}

// TestProveNonZero: divide guards.
func TestProveNonZero(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(x, d int) int {
	if d > 0 {
		return x / d
	}
	return 0
}
`)
	env := ru.envAt("return x / d")
	div := findBinary(ru, "/")
	if ok, iv := ru.fr.ProveNonZero(env, div.Y); !ok {
		t.Errorf("d under d > 0 should be nonzero (iv=%s)", iv)
	}

	ru = buildRangeUnit(t, `
func f(x, d int) int {
	return x / d
}
`)
	env = ru.envAt("return x / d")
	div = findBinary(ru, "/")
	if ok, _ := ru.fr.ProveNonZero(env, div.Y); ok {
		t.Error("unguarded divisor must not be provably nonzero")
	}
}

func findBinary(ru *rangeUnit, op string) *ast.BinaryExpr {
	var found *ast.BinaryExpr
	ast.Inspect(ru.fd, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op.String() == op && found == nil {
			found = b
		}
		return found == nil
	})
	if found == nil {
		ru.t.Fatalf("no %q expression", op)
	}
	return found
}

// TestRemSymbolic: i % n with positive n lands in [0, n-1] — provable
// as an index into anything of length n.
func TestRemSymbolic(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(vs []int, i int) int {
	n := len(vs)
	if n == 0 {
		return 0
	}
	if i < 0 {
		i = -i
	}
	return vs[i%n]
}
`)
	if ok, iv := ru.proveIndexAt("vs[i%n]"); !ok {
		t.Errorf("vs[i%%n] with n = len(vs) > 0 should be provable (iv=%s)", iv)
	}
}

// TestKillInvalidation: reassigning a variable must drop facts that
// referenced it symbolically.
func TestKillInvalidation(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(vs []int, n int) {
	i := 0
	if i < n {
		n = 0
		_ = i
	}
}
`)
	env := ru.envAt("_ = i")
	i := ru.ivOf(env, "i")
	if i.Hi.Sym != nil {
		t.Errorf("i.Hi still references reassigned n: %s", i)
	}
}

// TestUntrackedClosureVar: a variable assigned inside a nested closure
// must never carry facts (the closure may run concurrently).
func TestUntrackedClosureVar(t *testing.T) {
	ru := buildRangeUnit(t, `
func f(run func(func())) {
	i := 0
	run(func() { i = -5 })
	if i >= 0 {
		_ = i
	}
}
`)
	env := ru.envAt("_ = i")
	if got := ru.ivOf(env, "i").String(); got != "[-inf, +inf]" {
		t.Errorf("closure-assigned i should be untracked, got %s", got)
	}
}

// The two queries below phrase the inference as index and divisor facts;
// only the tests ask them (overflowconv asks ProveFits).

// ProveIndex reports that idx is provably within [0, len(x)) — or
// [0, N) for arrays — under env, returning the inferred index interval
// either way for diagnostics.
func (fr *FuncRanges) ProveIndex(env *Env, idx, x ast.Expr) (bool, Interval) {
	iv := fr.fa.Eval(env, idx)
	if env == nil {
		return false, iv
	}
	if !env.proveLE(ConstBound(0), iv.Lo) {
		return false, iv
	}
	if t, ok := fr.fa.info.Types[x]; ok {
		if n, aok := arrayLen(t.Type); aok {
			return env.proveLE(iv.Hi, ConstBound(n-1)), iv
		}
	}
	o := fr.fa.lenIdent(x)
	if o == nil {
		return false, iv
	}
	return env.proveLE(iv.Hi, SymBound(o, -1, true)), iv
}

// ProveNonZero reports that e is provably nonzero under env.
func (fr *FuncRanges) ProveNonZero(env *Env, e ast.Expr) (bool, Interval) {
	iv := fr.fa.Eval(env, e)
	if env == nil {
		return false, iv
	}
	return env.proveLE(ConstBound(1), iv.Lo) || env.proveLE(iv.Hi, ConstBound(-1)), iv
}
