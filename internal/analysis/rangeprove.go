package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Branch refinement, the symbolic prover, and the per-function driver
// (FuncRanges) that ties solving, widening, narrowing and querying
// together.

type boundSide int

const (
	boundLower boundSide = iota // refine the Lo endpoint upward
	boundUpper                  // refine the Hi endpoint downward
)

// refineExpr pushes "e <= b" (boundUpper) or "e >= b" (boundLower)
// back into the environment, through the syntactic forms the domain
// understands: tracked identifiers, ident ± constant, and len(local).
func (fa *funcAnalysis) refineExpr(env *Env, e ast.Expr, side boundSide, b Bound) {
	if b.Inf != 0 {
		return // an infinite bound refines nothing
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		o := fa.objOf(x)
		if o == nil || !fa.trackVar(o) || b.refs(o) {
			return
		}
		iv := fa.typeRangeOf(x)
		if cur, ok := env.vars[o]; ok {
			iv = cur
		}
		if side == boundUpper {
			iv.Hi = meetHi(iv.Hi, b)
		} else {
			iv.Lo = env.refineLo(iv.Lo, b, fa.typeRangeOf(x).Lo)
		}
		env.setVar(o, iv)
	case *ast.BinaryExpr:
		// x+c <= b  <=>  x <= b-c (and symmetric forms).
		if x.Op != token.ADD && x.Op != token.SUB {
			return
		}
		if c, ok := fa.constVal(x.Y); ok {
			if x.Op == token.SUB {
				c = -c
			}
			fa.refineExpr(env, x.X, side, b.AddK(-c))
			return
		}
		if c, ok := fa.constVal(x.X); ok && x.Op == token.ADD {
			fa.refineExpr(env, x.Y, side, b.AddK(-c))
		}
	case *ast.CallExpr:
		if o := fa.lenOperand(x); o != nil && !b.refs(o) {
			cur := Full()
			if lv, ok := env.lens[o]; ok {
				cur = lv
			}
			if side == boundUpper {
				cur.Hi = env.refineHi(cur.Hi, b)
			} else {
				cur.Lo = env.refineLo(cur.Lo, b, ConstBound(0))
			}
			env.setLen(o, cur)
		}
	}
}

// refineLo returns the better lower bound of the two. When they are
// incomparable, a symbolic candidate normally wins (its relation is
// what later proofs consume), with one exception: a candidate whose
// symbol the environment tracks with a frame BELOW trLo — the refined
// variable's own type minimum — is widening garbage, and accepting it
// would displace a guard-established constant (`ns >= 1` lost to
// `ns >= p+1` with p widened to -inf). Variable upper bounds never
// need the mirror test: a tracked symbol's frame is already clipped to
// its type maximum, and the vacuous-looking +inf frames (hint and
// len-of-growing-queue patterns) are exactly the bounds same-symbol
// proofs are built from. Length upper bounds are the one exception —
// see refineHi.
func (e *Env) refineLo(cur, cand, trLo Bound) Bound {
	if leqBound(cand, cur) {
		return cur
	}
	if leqBound(cur, cand) {
		return cand
	}
	curInformative := cur.Inf == 0 && cur.Sym == nil &&
		!(trLo.Inf == 0 && cur.K == trLo.K)
	if curInformative && cand.Sym != nil && e.vacuousSymLo(cand) {
		return cur
	}
	return cand
}

// refineHi returns the better upper bound for a tracked length. A
// symbolic candidate normally wins (it is the fresher fact), with the
// mirror exception to refineLo: a candidate whose symbol the
// environment tracks with a frame at its own type maximum (or +inf)
// is widening garbage, and accepting it would displace a
// guard-established constant — `len(words) <= C` lost to
// `len(words) <= wi` on a loop's break edge, with wi widened to the
// int maximum at the loop head. Unlike variable upper bounds, a
// vacuous-framed symbolic ceiling on a *length* feeds no same-symbol
// proof downstream (index and slice proofs consume length floors, not
// ceilings), so keeping the constant is strictly more useful.
func (e *Env) refineHi(cur, cand Bound) Bound {
	if leqBound(cur, cand) {
		return cur
	}
	if leqBound(cand, cur) {
		return cand
	}
	if cur.isConst() && cur.K < maxSliceLen &&
		cand.Sym != nil && e.vacuousSymHi(cand) {
		return cur
	}
	return cand
}

// vacuousSymHi reports whether b's symbol is tracked here with an upper
// bound that says nothing — its own type maximum or +inf. Typical of a
// loop variable widened at the loop head.
func (e *Env) vacuousSymHi(b Bound) bool {
	if b.IsLen {
		lv, ok := e.lens[b.Sym]
		if !ok {
			return false
		}
		return lv.Hi.Inf == +1
	}
	iv, ok := e.vars[b.Sym]
	if !ok {
		return false
	}
	if iv.Hi.Inf == +1 {
		return true
	}
	if tr, trok := TypeRange(b.Sym.Type()); trok && tr.Hi.Inf == 0 &&
		iv.Hi.Inf == 0 && iv.Hi.Sym == nil && iv.Hi.K == tr.Hi.K {
		return true
	}
	return false
}

// vacuousSymLo reports whether b's symbol is tracked here with a lower
// bound that says nothing — its own type minimum, -inf, or (for a
// length) the trivial 0 floor. Typical of a widened loop variable.
func (e *Env) vacuousSymLo(b Bound) bool {
	if b.IsLen {
		lv, ok := e.lens[b.Sym]
		if !ok {
			return false
		}
		return lv.Lo.Inf == -1 || (lv.Lo.Inf == 0 && lv.Lo.Sym == nil && lv.Lo.K <= 0)
	}
	iv, ok := e.vars[b.Sym]
	if !ok {
		return false
	}
	if iv.Lo.Inf == -1 {
		return true
	}
	if tr, trok := TypeRange(b.Sym.Type()); trok && tr.Lo.Inf == 0 &&
		iv.Lo.Inf == 0 && iv.Lo.Sym == nil && iv.Lo.K == tr.Lo.K {
		return true
	}
	return false
}

func (fa *funcAnalysis) constVal(e ast.Expr) (int64, bool) {
	tv, ok := fa.info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	k, exact := constant.Int64Val(tv.Value)
	return k, exact
}

// refineCond refines env under "cond == truth" for integer
// comparisons. The CFG splits && and || into condition blocks, so a
// compound operand here only appears inside expressions we give up on.
func (fa *funcAnalysis) refineCond(env *Env, cond ast.Expr, truth bool) {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		fa.refineCond(env, u.X, !truth)
		return
	}
	cmp, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	op := cmp.Op
	if !truth {
		neg := map[token.Token]token.Token{
			token.LSS: token.GEQ, token.GEQ: token.LSS,
			token.LEQ: token.GTR, token.GTR: token.LEQ,
			token.EQL: token.NEQ, token.NEQ: token.EQL,
		}
		nop, known := neg[op]
		if !known {
			return
		}
		op = nop
	}
	if tv, ok := fa.info.Types[cmp.X]; !ok || tv.Type == nil ||
		!isIntType(tv.Type) {
		return
	}
	lLo, lHi := fa.condBounds(env, cmp.X)
	rLo, rHi := fa.condBounds(env, cmp.Y)
	switch op {
	case token.LSS: // X < Y
		fa.refineExpr(env, cmp.X, boundUpper, rHi.AddK(-1))
		fa.refineExpr(env, cmp.Y, boundLower, lLo.AddK(1))
	case token.LEQ:
		fa.refineExpr(env, cmp.X, boundUpper, rHi)
		fa.refineExpr(env, cmp.Y, boundLower, lLo)
	case token.GTR: // X > Y
		fa.refineExpr(env, cmp.X, boundLower, rLo.AddK(1))
		fa.refineExpr(env, cmp.Y, boundUpper, lHi.AddK(-1))
	case token.GEQ:
		fa.refineExpr(env, cmp.X, boundLower, rLo)
		fa.refineExpr(env, cmp.Y, boundUpper, lHi)
	case token.EQL:
		fa.refineExpr(env, cmp.X, boundUpper, rHi)
		fa.refineExpr(env, cmp.X, boundLower, rLo)
		fa.refineExpr(env, cmp.Y, boundUpper, lHi)
		fa.refineExpr(env, cmp.Y, boundLower, lLo)
	case token.NEQ:
		// Point exclusion at an interval's edge: x != k with x >= k
		// means x >= k+1 (and the mirror case).
		fa.excludePoint(env, cmp.X, fa.Eval(env, cmp.Y))
		fa.excludePoint(env, cmp.Y, fa.Eval(env, cmp.X))
	}
}

// condBounds returns the bounds a comparison against e may refine
// with: e's exact point form when it has one (a constant, a tracked
// variable, x±c, len(s) — these stay symbolic and survive into the
// prover), else its evaluated interval endpoints.
func (fa *funcAnalysis) condBounds(env *Env, e ast.Expr) (lo, hi Bound) {
	if p, ok := fa.exprPoint(env, e); ok {
		return p, p
	}
	iv := fa.Eval(env, e)
	return iv.Lo, iv.Hi
}

func isIntType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func (fa *funcAnalysis) excludePoint(env *Env, e ast.Expr, o Interval) {
	if o.Lo != o.Hi || o.Lo.Inf != 0 {
		return // not a point
	}
	cur := fa.Eval(env, e)
	if boundEq(cur.Lo, o.Lo) {
		fa.refineExpr(env, e, boundLower, o.Lo.AddK(1))
	}
	if boundEq(cur.Hi, o.Hi) {
		fa.refineExpr(env, e, boundUpper, o.Hi.AddK(-1))
	}
}

// refineRangeEdge binds the range key on the head→body edge:
// [0, len(X)-1] over slices/strings, [0, N-1] over arrays, [0, X-1]
// for range-over-int. Symbolic bounds are bound only against stable
// operands — the binding re-applies every iteration from the operand's
// initial value, so a reassignable operand would leak future values
// into past iterations.
func (fa *funcAnalysis) refineRangeEdge(env *Env, rs *ast.RangeStmt) {
	key, ok := ast.Unparen(rs.Key).(*ast.Ident)
	if rs.Key == nil || !ok {
		return
	}
	o := fa.objOf(key)
	if o == nil || !fa.trackVar(o) {
		return
	}
	t, tok := fa.info.Types[rs.X]
	if !tok || t.Type == nil {
		return
	}
	iv := Interval{Lo: ConstBound(0), Hi: PosInf()}
	if n, aok := arrayLen(t.Type); aok {
		iv.Hi = ConstBound(n - 1)
	} else {
		switch t.Type.Underlying().(type) {
		case *types.Slice, *types.Basic:
			if isIntType(t.Type) {
				// range over int: key in [0, X0-1], body entered only
				// when X0 >= 1.
				if id, iok := ast.Unparen(rs.X).(*ast.Ident); iok {
					if xo := fa.objOf(id); xo != nil && fa.stable(xo) {
						iv.Hi = fa.Eval(env, rs.X).Hi.AddK(-1)
					}
				} else if c, cok := fa.constVal(rs.X); cok {
					iv.Hi = ConstBound(c - 1)
				}
			} else if xo := fa.lenIdent(rs.X); xo != nil && fa.stable(xo) {
				iv.Hi = SymBound(xo, -1, true)
			}
		case *types.Map, *types.Chan, *types.Signature:
			return // keys unbounded / not integers
		}
	}
	// The defining key ident is not an expression in info.Types; take
	// the representable range from the object's type directly.
	if tr, trok := TypeRange(o.Type()); trok {
		iv = tr.Meet(iv)
	}
	env.setVar(o, iv)
}

// concrete collapses symbolic endpoints to the tightest concrete frame
// the environment proves — the operand form nonlinear interval ops
// need.
func (e *Env) concrete(iv Interval) Interval {
	out := Interval{Lo: NegInf(), Hi: PosInf()}
	for _, f := range e.lowerForms(iv.Lo, 2) {
		if f.isConst() && (out.Lo.Inf != 0 || f.K > out.Lo.K) {
			out.Lo = f
		}
	}
	for _, f := range e.upperForms(iv.Hi, 2) {
		if f.isConst() && (out.Hi.Inf != 0 || f.K < out.Hi.K) {
			out.Hi = f
		}
	}
	return out
}

// upperForms expands an upper endpoint through the environment: k+x
// widens through x's own upper bound, k+len(s) through the lens
// table's upper bound. depth limits substitution chains.
func (e *Env) upperForms(b Bound, depth int) []Bound {
	forms := []Bound{b}
	if e == nil {
		return forms
	}
	for level := 0; level < depth; level++ {
		added := false
		for _, f := range forms {
			if f.Inf != 0 || f.Sym == nil {
				continue
			}
			var next Bound
			var ok bool
			if f.IsLen {
				if lv, has := e.lens[f.Sym]; has {
					next, ok = lv.Hi.AddK(f.K), true
				}
			} else if vv, has := e.vars[f.Sym]; has {
				next, ok = vv.Hi.AddK(f.K), true
			}
			if ok && !containsBound(forms, next) {
				forms = append(forms, next)
				added = true
			}
		}
		if !added {
			break
		}
	}
	return forms
}

// lowerForms is the mirror for lower endpoints.
func (e *Env) lowerForms(b Bound, depth int) []Bound {
	forms := []Bound{b}
	if e == nil {
		return forms
	}
	for level := 0; level < depth; level++ {
		added := false
		for _, f := range forms {
			if f.Inf != 0 || f.Sym == nil {
				continue
			}
			var next Bound
			var ok bool
			if f.IsLen {
				if lv, has := e.lens[f.Sym]; has {
					next, ok = lv.Lo.AddK(f.K), true
				}
			} else if vv, has := e.vars[f.Sym]; has {
				next, ok = vv.Lo.AddK(f.K), true
			}
			if ok && !containsBound(forms, next) {
				forms = append(forms, next)
				added = true
			}
		}
		if !added {
			break
		}
	}
	return forms
}

func containsBound(list []Bound, b Bound) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

// proveLE reports env |- a <= b: some expansion of a is provably <=
// some expansion of b. a expands through upper bounds (it sits on the
// small side), b through lower bounds.
func (e *Env) proveLE(a, b Bound) bool {
	for _, x := range e.upperForms(a, 2) {
		for _, y := range e.lowerForms(b, 2) {
			if leqBound(x, y) {
				return true
			}
		}
	}
	return false
}

// fits reports that every value of iv is representable in t without
// wrapping.
func (fa *funcAnalysis) fits(env *Env, iv Interval, t types.Type) bool {
	tr, ok := TypeRange(t)
	if !ok {
		return false
	}
	return env.proveLE(iv.Hi, tr.Hi) && env.proveLE(tr.Lo, iv.Lo)
}

// FuncRanges is the solved range analysis of one unit (function
// declaration or literal): the fixpoint environments plus the query
// API the tests query.
type FuncRanges struct {
	fa    *funcAnalysis
	cfg   *CFG
	order []*Block
	in    map[*Block]*Env
}

// analyzeUnit solves the interval problem for unit from an
// unconstrained entry, then runs two narrowing passes to recover
// precision lost to widening.
func analyzeUnit(info *types.Info, unit ast.Node) *FuncRanges {
	fa := newFuncAnalysis(info, unit)
	cfg := BuildCFG(unit)
	entry := &Env{}
	lat := Lattice[*Env]{
		Boundary: entry,
		Top:      func() *Env { return nil },
		Meet:     joinEnvs,
		Equal:    equalEnvs,
		Transfer: fa.transfer,
		EdgeTransfer: func(from, to *Block, out *Env) *Env {
			return fa.edgeTransfer(from, to, out)
		},
		Widen: widenEnv,
	}
	res := Solve(cfg, Forward, lat)
	fr := &FuncRanges{fa: fa, cfg: cfg, order: cfg.Reachable(), in: res.In}
	// Narrowing: recompute In/Out from the widened fixpoint a bounded
	// number of times without widening. Decreasing iterations from a
	// post-fixpoint stay sound at every step, so a fixed pass count
	// needs no convergence check.
	out := map[*Block]*Env{}
	for _, b := range fr.order {
		out[b] = fa.transfer(b, fr.in[b])
	}
	for pass := 0; pass < 2; pass++ {
		for _, b := range fr.order {
			if b == cfg.Entry {
				fr.in[b] = entry
			} else {
				var merged *Env
				for _, p := range b.Preds {
					merged = joinEnvs(merged, fa.edgeTransfer(p, b, out[p]))
				}
				fr.in[b] = merged
			}
			out[b] = fa.transfer(b, fr.in[b])
		}
	}
	return fr
}

// edgeTransfer applies branch refinement (condition blocks) and range
// key binding (range heads) to the fact flowing along one edge.
func (fa *funcAnalysis) edgeTransfer(from, to *Block, out *Env) *Env {
	if out == nil {
		return nil
	}
	if from.Cond != nil && len(from.Succs) == 2 {
		env := out.clone()
		fa.refineCond(env, from.Cond, to == from.Succs[0])
		return env
	}
	if len(from.Nodes) > 0 && len(from.Succs) > 0 && to == from.Succs[0] {
		if rs, ok := from.Nodes[len(from.Nodes)-1].(*ast.RangeStmt); ok {
			env := out.clone()
			fa.refineRangeEdge(env, rs)
			return env
		}
	}
	return out
}

// EnvAt returns the environment just before the innermost block node
// containing pos, replaying the block prefix; nil when pos sits in
// unreachable code.
func (fr *FuncRanges) EnvAt(pos token.Pos) *Env {
	var blk *Block
	var node ast.Node
	var span token.Pos = -1
	for _, b := range fr.order {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos <= n.End() {
				if s := n.End() - n.Pos(); span < 0 || s < span {
					blk, node, span = b, n, s
				}
			}
		}
	}
	if blk == nil {
		return nil
	}
	env := fr.in[blk]
	if env == nil {
		return nil
	}
	env = env.clone()
	for _, n := range blk.Nodes {
		if n == node {
			break
		}
		fr.fa.stepNode(env, n)
	}
	return env
}

// Eval evaluates e under env (see funcAnalysis.Eval).
func (fr *FuncRanges) Eval(env *Env, e ast.Expr) Interval {
	return fr.fa.Eval(env, e)
}

// ProveFits reports that e's value provably fits t without wrapping.
func (fr *FuncRanges) ProveFits(env *Env, e ast.Expr, t types.Type) (bool, Interval) {
	iv := fr.fa.Eval(env, e)
	if env == nil {
		return false, iv
	}
	return fr.fa.fits(env, iv, t), iv
}
