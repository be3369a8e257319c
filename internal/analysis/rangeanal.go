package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file runs the interval domain (interval.go) over per-function
// CFGs: an environment lattice mapping local variables to value ranges
// and local slices/strings to length ranges, a transfer function over
// block nodes (assignments, declarations, increments, range bindings),
// branch refinement on condition edges (Block.Cond), widening at loop
// heads with bounded narrowing passes, and a prover that discharges
// index-in-bounds and conversion-fits queries by comparing symbolic
// endpoints with one or two levels of substitution through the
// environment.
//
// Modeling decisions, in the order they bite:
//
//   - Only variables declared inside the analyzed unit (a FuncDecl or
//     one FuncLit) are tracked, and only while their address is never
//     taken and no nested closure assigns them. That rules out every
//     aliasing channel (callee writes, concurrent goroutine writes),
//     so calls kill nothing.
//   - Arithmetic is modeled over unbounded integers. Wraparound of int
//     arithmetic at 2^63 is out of scope: the analyzers' proof targets
//     are slice indexes (bounded by len <= MaxInt by construction) and
//     conversion fits, and conversions — not arithmetic — are the
//     overflow surface the overflowconv analyzer patrols.
//   - Facts referencing a variable symbolically die when that variable
//     is reassigned (killObj scans both maps).
//   - Executed index/slice expressions assert their own safety: after
//     s[e] runs, e <= len(s)-1 and e >= 0 hold. This is what makes the
//     documented `_ = s[n-1]` bounds-hint idiom visible to the prover.
//   - The analysis is intraprocedural: a unit's parameters and every
//     call result span their types.

// Env is the dataflow fact: value ranges for integer locals and length
// ranges for slice/string locals. A nil *Env means "unreachable"; an
// empty Env means "reachable, nothing known" (every variable spans its
// type). Entries never store Full intervals — absence encodes them.
type Env struct {
	vars map[types.Object]Interval
	lens map[types.Object]Interval
}

func (e *Env) clone() *Env {
	out := &Env{}
	if len(e.vars) > 0 {
		out.vars = make(map[types.Object]Interval, len(e.vars))
		for k, v := range e.vars {
			out.vars[k] = v
		}
	}
	if len(e.lens) > 0 {
		out.lens = make(map[types.Object]Interval, len(e.lens))
		for k, v := range e.lens {
			out.lens[k] = v
		}
	}
	return out
}

func (e *Env) setVar(o types.Object, iv Interval) {
	if iv.IsFull() {
		delete(e.vars, o)
		return
	}
	if e.vars == nil {
		e.vars = map[types.Object]Interval{}
	}
	e.vars[o] = iv
}

func (e *Env) setLen(o types.Object, iv Interval) {
	if iv.IsFull() {
		delete(e.lens, o)
		return
	}
	if e.lens == nil {
		e.lens = map[types.Object]Interval{}
	}
	e.lens[o] = iv
}

// killObj forgets o's own entries and rewrites any endpoint in the
// environment that references o symbolically — o is being reassigned,
// so those relations no longer hold. A dependent endpoint described
// o's dying value, so the concrete frame that value proves is a sound
// replacement (and keeps `p >= ns` useful across `ns = p`).
func (e *Env) killObj(o types.Object) {
	for _, m := range [2]map[types.Object]Interval{e.vars, e.lens} {
		for k, iv := range m {
			if k == o || (!iv.Lo.refs(o) && !iv.Hi.refs(o)) {
				continue
			}
			c := e.concrete(iv)
			if iv.Lo.refs(o) {
				iv.Lo = c.Lo
			}
			if iv.Hi.refs(o) {
				iv.Hi = c.Hi
			}
			if iv.IsFull() {
				delete(m, k)
			} else {
				m[k] = iv
			}
		}
	}
	delete(e.vars, o)
	delete(e.lens, o)
}

func joinEnvs(a, b *Env) *Env {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &Env{}
	for k, v := range a.vars {
		if w, ok := b.vars[k]; ok {
			out.setVar(k, joinIvEnv(a, v, b, w))
		}
	}
	for k, v := range a.lens {
		if w, ok := b.lens[k]; ok {
			out.setLen(k, joinIvEnv(a, v, b, w))
		}
	}
	return out
}

// joinIvEnv joins v (valid under environment a) with w (valid under b).
// When the raw join collapses an endpoint to infinity because the two
// bounds are incomparable — typically a symbolic relation from one path
// meeting a constant from the other — the endpoints are concretized
// against their own environments and that endpoint's join is retried,
// so a path-specific relation degrades to the concrete frame it proves
// rather than to nothing.
func joinIvEnv(a *Env, v Interval, b *Env, w Interval) Interval {
	j := v.Join(w)
	if j.Lo.Inf == -1 && v.Lo.Inf != -1 && w.Lo.Inf != -1 {
		j.Lo = joinLo(a.concrete(v).Lo, b.concrete(w).Lo)
	}
	if j.Hi.Inf == +1 && v.Hi.Inf != +1 && w.Hi.Inf != +1 {
		j.Hi = joinHi(a.concrete(v).Hi, b.concrete(w).Hi)
	}
	return j
}

func equalEnvs(a, b *Env) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.vars) != len(b.vars) || len(a.lens) != len(b.lens) {
		return false
	}
	for k, v := range a.vars {
		if w, ok := b.vars[k]; !ok || v != w {
			return false
		}
	}
	for k, v := range a.lens {
		if w, ok := b.lens[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// widenEnv applies interval widening entrywise. Keys only shrink under
// joins, so iterating merged's keys covers everything that can change.
func widenEnv(old, merged *Env) *Env {
	if old == nil || merged == nil {
		return merged
	}
	out := &Env{}
	for k, v := range merged.vars {
		if ov, ok := old.vars[k]; ok {
			out.setVar(k, ov.Widen(v))
		} else {
			out.setVar(k, v)
		}
	}
	for k, v := range merged.lens {
		if ov, ok := old.lens[k]; ok {
			out.setLen(k, ov.Widen(v))
		} else {
			out.setLen(k, v)
		}
	}
	return out
}

// funcAnalysis holds the per-unit context the transfer function and
// prover need: type info and trackability sets.
type funcAnalysis struct {
	info *types.Info
	unit ast.Node // *ast.FuncDecl or *ast.FuncLit
	// untrackable marks unit-local variables whose address is taken or
	// that a nested closure assigns — any fact about them could be
	// invalidated behind the analysis's back.
	untrackable map[types.Object]bool
	// assignN counts assignments per variable. Range heads may bind
	// symbolic bounds only against stable operands — at most one
	// (declaring) assignment, so parameters count — since the binding
	// is re-applied every iteration from the loop's original operand
	// value.
	assignN map[types.Object]int
}

func newFuncAnalysis(info *types.Info, unit ast.Node) *funcAnalysis {
	fa := &funcAnalysis{
		info:        info,
		unit:        unit,
		untrackable: map[types.Object]bool{},
		assignN:     map[types.Object]int{},
	}
	assigns := fa.assignN
	bump := func(e ast.Expr, inLit bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		o := fa.objOf(id)
		if o == nil {
			return
		}
		assigns[o]++
		if inLit {
			fa.untrackable[o] = true
		}
	}
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				if m != unit {
					walk(m.Body, true)
					return false
				}
			case *ast.AssignStmt:
				for _, l := range m.Lhs {
					bump(l, inLit)
				}
			case *ast.IncDecStmt:
				bump(m.X, inLit)
			case *ast.RangeStmt:
				bump(m.Key, inLit)
				bump(m.Value, inLit)
			case *ast.UnaryExpr:
				if m.Op == token.AND {
					if id, ok := ast.Unparen(m.X).(*ast.Ident); ok {
						if o := fa.objOf(id); o != nil {
							fa.untrackable[o] = true
						}
					}
				}
			}
			return true
		})
	}
	walk(body(unit), false)
	return fa
}

// stable reports o is never reassigned after its declaring assignment
// (parameters have zero recorded assignments and qualify).
func (fa *funcAnalysis) stable(o types.Object) bool {
	return fa.assignN[o] <= 1
}

func body(unit ast.Node) *ast.BlockStmt {
	switch u := unit.(type) {
	case *ast.FuncDecl:
		return u.Body
	case *ast.FuncLit:
		return u.Body
	}
	return nil
}

// objOf resolves an identifier to its variable object (definition or
// use), nil for blank, non-variables and struct fields.
func (fa *funcAnalysis) objOf(id *ast.Ident) types.Object {
	if id == nil || id.Name == "_" {
		return nil
	}
	o := fa.info.Defs[id]
	if o == nil {
		o = fa.info.Uses[id]
	}
	v, ok := o.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// inUnit reports o is declared lexically inside the analyzed unit —
// the trackability boundary (see the file comment).
func (fa *funcAnalysis) inUnit(o types.Object) bool {
	return o.Pos() >= fa.unit.Pos() && o.Pos() < fa.unit.End()
}

func (fa *funcAnalysis) trackVar(o types.Object) bool {
	if o == nil || fa.untrackable[o] || !fa.inUnit(o) {
		return false
	}
	basic, ok := o.Type().Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func (fa *funcAnalysis) trackLen(o types.Object) bool {
	if o == nil || fa.untrackable[o] || !fa.inUnit(o) {
		return false
	}
	switch o.Type().Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		return o.Type().Underlying().(*types.Basic).Info()&types.IsString != 0
	}
	return false
}

// lenIdent returns the tracked object when e is an identifier for a
// local slice or string whose length facts may be stored.
func (fa *funcAnalysis) lenIdent(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	o := fa.objOf(id)
	if o != nil && fa.trackLen(o) {
		return o
	}
	return nil
}

// arrayLen returns the static length when e's type is an array or
// pointer-to-array.
func arrayLen(t types.Type) (int64, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if a, ok := t.Underlying().(*types.Array); ok {
		return a.Len(), true
	}
	return 0, false
}
