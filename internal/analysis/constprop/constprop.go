// Package constprop runs sparse conditional constant propagation over
// the SSA layer and flags provably-constant branch conditions —
// always-true/always-false tests whose dead arm survives in non-fixture
// code.
//
// The lattice per SSA value is bottom (unvisited) → constant → top,
// driven with the classic SCCP executability refinement: definitions in
// blocks no executable edge reaches stay bottom and do not pollute phi
// meets, so `x := 1; if c { x = 2; return }; use(x)` still knows x is 1
// at the use. Conditions are (re)evaluated as facts lower, and only the
// post-fixpoint verdict is reported — a loop condition that is true on
// the first iteration but top at the fixed point stays silent.
//
// Conditions the type checker already folds to a constant (literals,
// named constants, build flags like `if debugTrace {`) are deliberate
// and skipped; only conditions that become constant through value flow
// are findings.
package constprop

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
	"github.com/graphbig/graphbig-go/internal/analysis/ssa"
)

// Analyzer is the constprop module analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "constprop",
	Doc:       "sparse conditional constant propagation: provably-dead branches and always-true conditions",
	RunModule: run,
}

var scope = []string{
	"internal/engine",
	"internal/concurrent",
	"internal/property",
	"internal/partition",
	"internal/workloads",
	"internal/order",
}

func run(mp *analysis.ModulePass) error {
	m := mp.Module
	info := ssa.Of(m)
	for _, n := range m.CallGraph().Declared() {
		if n.Pkg == nil || !analysis.HasPathSuffix(n.Pkg.PkgPath, scope...) {
			continue
		}
		checkFunc(mp, n.Pkg, info.FuncOf(n.Pkg, n.Decl))
		for _, lit := range funcLits(n.Decl) {
			checkFunc(mp, n.Pkg, info.FuncOf(n.Pkg, lit))
		}
	}
	return nil
}

const (
	sBottom = iota
	sConst
	sTop
)

type latval struct {
	state int
	val   constant.Value
}

func (a latval) eq(b latval) bool {
	if a.state != b.state {
		return false
	}
	if a.state != sConst {
		return true
	}
	return a.val.ExactString() == b.val.ExactString()
}

var top = latval{state: sTop}

func meet(a, b latval) latval {
	switch {
	case a.state == sBottom:
		return b
	case b.state == sBottom:
		return a
	case a.eq(b):
		return a
	default:
		return top
	}
}

type sccp struct {
	mp   *analysis.ModulePass
	pkg  *analysis.Package
	fn   *ssa.Func
	vals map[*ssa.Def]latval
	exec map[*analysis.Block]bool
	edge map[[2]int]bool
	// defsIn groups non-phi defs by block; condBlocks maps a def to the
	// executable-branch blocks whose condition reads it.
	defsIn     map[*analysis.Block][]*ssa.Def
	condBlocks map[*ssa.Def][]*analysis.Block
}

func checkFunc(mp *analysis.ModulePass, pkg *analysis.Package, fn *ssa.Func) {
	s := &sccp{
		mp:         mp,
		pkg:        pkg,
		fn:         fn,
		vals:       map[*ssa.Def]latval{},
		exec:       map[*analysis.Block]bool{},
		edge:       map[[2]int]bool{},
		defsIn:     map[*analysis.Block][]*ssa.Def{},
		condBlocks: map[*ssa.Def][]*analysis.Block{},
	}
	for _, d := range fn.Defs {
		if d.Kind != ssa.DefPhi {
			s.defsIn[d.Block] = append(s.defsIn[d.Block], d)
		}
	}
	for _, b := range fn.Dom.RPO() {
		if b.Cond == nil {
			continue
		}
		blk := b
		ast.Inspect(b.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if d, ok := fn.UseDef[id]; ok {
					s.condBlocks[d] = append(s.condBlocks[d], blk)
				}
			}
			return true
		})
	}
	s.visitBlock(fn.CFG.Entry)
	s.report()
}

func (s *sccp) visitBlock(b *analysis.Block) {
	if s.exec[b] {
		return
	}
	s.exec[b] = true
	for _, d := range s.defsIn[b] {
		s.update(d)
	}
	for _, phi := range s.fn.Phis[b] {
		s.update(phi)
	}
	s.outEdges(b)
}

// update re-evaluates d and, when its fact lowers, propagates to
// dependents and to conditions reading d.
func (s *sccp) update(d *ssa.Def) {
	nv := s.evalDef(d)
	old := s.vals[d]
	// The lattice only descends: never raise an established fact.
	if old.state == sTop || nv.eq(old) || nv.state < old.state {
		return
	}
	if old.state == sConst && nv.state == sConst {
		nv = top
	}
	s.vals[d] = nv
	for _, e := range s.fn.Dependents(d) {
		if s.exec[e.Block] {
			s.update(e)
		}
	}
	for _, b := range s.condBlocks[d] {
		if s.exec[b] {
			s.outEdges(b)
		}
	}
}

func (s *sccp) outEdges(b *analysis.Block) {
	mark := func(to *analysis.Block) {
		key := [2]int{b.Index, to.Index}
		if s.edge[key] {
			return
		}
		s.edge[key] = true
		if s.exec[to] {
			for _, phi := range s.fn.Phis[to] {
				s.update(phi)
			}
		} else {
			s.visitBlock(to)
		}
	}
	if b.Cond != nil && len(b.Succs) == 2 {
		switch v := s.evalExpr(b.Cond); {
		case v.state == sConst && v.val.Kind() == constant.Bool:
			if constant.BoolVal(v.val) {
				mark(b.Succs[0])
			} else {
				mark(b.Succs[1])
			}
			return
		case v.state == sBottom:
			return // revisited when the condition's inputs lower
		}
		mark(b.Succs[0])
		mark(b.Succs[1])
		return
	}
	for _, to := range b.Succs {
		mark(to)
	}
}

func (s *sccp) evalDef(d *ssa.Def) latval {
	switch d.Kind {
	case ssa.DefAssign:
		return s.evalExpr(d.Rhs)
	case ssa.DefZero:
		return zeroOf(d.Var.Type())
	case ssa.DefPhi:
		out := latval{}
		for i, a := range d.Args {
			if a == nil || i >= len(d.Block.Preds) {
				continue
			}
			if !s.edge[[2]int{d.Block.Preds[i].Index, d.Block.Index}] {
				continue // value from a non-executable edge
			}
			out = meet(out, s.vals[a])
		}
		return out
	default:
		return top
	}
}

func zeroOf(t types.Type) latval {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return top
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		return latval{sConst, constant.MakeInt64(0)}
	case b.Info()&types.IsFloat != 0:
		return latval{sConst, constant.MakeFloat64(0)}
	case b.Info()&types.IsBoolean != 0:
		return latval{sConst, constant.MakeBool(false)}
	case b.Info()&types.IsString != 0:
		return latval{sConst, constant.MakeString("")}
	}
	return top
}

// evalExpr evaluates e over the current SSA facts. go/constant panics
// on operand mismatches it does not model; the recover keeps those at
// top rather than killing the run.
func (s *sccp) evalExpr(e ast.Expr) (out latval) {
	defer func() {
		if recover() != nil {
			out = top
		}
	}()
	e = ast.Unparen(e)
	if tv, ok := s.pkg.TypesInfo.Types[e]; ok && tv.Value != nil {
		return latval{sConst, tv.Value}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if d, ok := s.fn.UseDef[e]; ok {
			return s.vals[d]
		}
	case *ast.UnaryExpr:
		x := s.evalExpr(e.X)
		if x.state != sConst {
			return x
		}
		switch e.Op {
		case token.SUB, token.ADD, token.NOT:
			return latval{sConst, constant.UnaryOp(e.Op, x.val, 0)}
		}
	case *ast.BinaryExpr:
		x := s.evalExpr(e.X)
		y := s.evalExpr(e.Y)
		if x.state == sBottom || y.state == sBottom {
			return latval{}
		}
		if x.state == sTop || y.state == sTop {
			return top
		}
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return latval{sConst, constant.MakeBool(constant.Compare(x.val, e.Op, y.val))}
		case token.SHL, token.SHR:
			n, ok := constant.Uint64Val(y.val)
			if !ok || n > 256 {
				return top
			}
			return latval{sConst, constant.Shift(x.val, e.Op, uint(n))}
		case token.LAND:
			return latval{sConst, constant.MakeBool(constant.BoolVal(x.val) && constant.BoolVal(y.val))}
		case token.LOR:
			return latval{sConst, constant.MakeBool(constant.BoolVal(x.val) || constant.BoolVal(y.val))}
		case token.QUO, token.REM:
			if constant.Sign(y.val) == 0 {
				return top // division by zero: leave it to the runtime/vet elsewhere
			}
			op := e.Op
			if op == token.QUO && isIntExpr(s.pkg.TypesInfo, e) {
				op = token.QUO_ASSIGN // integer division in go/constant
			}
			return latval{sConst, constant.BinaryOp(x.val, op, y.val)}
		case token.ADD, token.SUB, token.MUL, token.AND, token.OR, token.XOR, token.AND_NOT:
			return latval{sConst, constant.BinaryOp(x.val, e.Op, y.val)}
		}
	}
	return top
}

func isIntExpr(info *types.Info, e ast.Expr) bool {
	b, ok := info.Types[e].Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// report emits the post-fixpoint verdicts: executable two-way branch
// conditions whose value is a proven constant, excluding conditions the
// type checker folded itself (deliberate flags).
func (s *sccp) report() {
	seen := map[token.Pos]bool{}
	for _, b := range s.fn.Dom.RPO() {
		if !s.exec[b] || b.Cond == nil || len(b.Succs) != 2 {
			continue
		}
		if tv, ok := s.pkg.TypesInfo.Types[b.Cond]; ok && tv.Value != nil {
			continue
		}
		v := s.evalExpr(b.Cond)
		if v.state != sConst || v.val.Kind() != constant.Bool || seen[b.Cond.Pos()] {
			continue
		}
		seen[b.Cond.Pos()] = true
		if constant.BoolVal(v.val) {
			s.mp.Report(b.Cond.Pos(), "condition is always true; the false branch is unreachable")
		} else {
			s.mp.Report(b.Cond.Pos(), "condition is always false; the true branch is unreachable")
		}
	}
}

// funcLits returns every function literal inside decl (a *ast.FuncDecl or
// *ast.FuncLit) at any depth, in source order — the closure units of the
// enclosing declaration.
func funcLits(decl ast.Node) []*ast.FuncLit {
	var body *ast.BlockStmt
	switch d := decl.(type) {
	case *ast.FuncDecl:
		body = d.Body
	case *ast.FuncLit:
		body = d.Body
	}
	var lits []*ast.FuncLit
	if body == nil {
		return lits
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}
