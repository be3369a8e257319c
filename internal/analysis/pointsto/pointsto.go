// Package pointsto implements a flow-insensitive, field-sensitive,
// context-insensitive Andersen-style (inclusion-based) points-to
// analysis over an analysis.Module. It gives the aliasleak analyzer the
// aliasing facts syntax cannot: which abstract objects an expression may
// refer to, whether two object sets may alias, and which objects are
// reachable from a set of roots.
//
// # Abstraction
//
// Objects are allocation sites: every make/new/composite-literal/append
// expression, every address-taken or aggregate-typed variable (its
// storage cell), every function literal and referenced declared
// function (so indirect calls can be resolved from points-to sets), and
// one "extern" object standing for everything allocated by unanalyzed
// code. Field-sensitivity is per named struct field plus two
// pseudo-fields: Elem (slice/array/map/chan/pointer element cells) and
// MapKey. The analysis is flow-insensitive (one points-to set per node,
// no program-point ordering) and context-insensitive (one summary per
// function, all call sites merged) — sound for may-alias queries, which
// is what the analyzers consume.
//
// # Calls
//
// Static calls bind arguments to parameters and returns to call-result
// nodes directly. Indirect calls (func-typed values, interface method
// calls) are resolved from the points-to set of the callee expression —
// function objects and the receivers' concrete types — by an outer
// fixpoint: solve, bind any newly discovered (site, target) pairs, and
// re-solve until no binding is added. Calls into unanalyzed code route
// every pointer-like argument into the extern object and every result
// out of it, the conservative blur.
package pointsto

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// Kind classifies an abstract object.
type Kind int

const (
	// KAlloc is a make/new/composite-literal/append/conversion
	// allocation site.
	KAlloc Kind = iota
	// KVar is the storage cell of a variable that needed an object of
	// its own: address-taken locals and every struct/array-typed
	// variable (its fields/elements are cells inside this object).
	KVar
	// KInner is a struct-typed field cell seeded inside another object
	// so that writes through nested value fields are never lost.
	KInner
	// KFunc is a function value: a func literal, a declared function
	// referenced as a value, or a bound-method value.
	KFunc
	// KExtern is the single object standing for all unanalyzed memory.
	KExtern
	// KParam is a symbolic object seeded into a declared function's
	// parameter: "whatever the caller passed". It keeps intra-function
	// alias queries meaningful for entry points whose callers are not
	// analyzed (exported API, test-only paths).
	KParam
)

func (k Kind) String() string {
	switch k {
	case KAlloc:
		return "alloc"
	case KVar:
		return "var"
	case KInner:
		return "inner"
	case KFunc:
		return "func"
	case KExtern:
		return "extern"
	case KParam:
		return "param"
	}
	return "?"
}

// Object is one abstract object (allocation site).
type Object struct {
	ID   ObjID
	Kind Kind
	// Site is the allocation syntax: the make/new/composite/append call,
	// the func literal, the referencing ident of a declared function, or
	// the declaring ident of a KVar cell. Nil for KExtern and KInner.
	Site ast.Node
	// Type is the cell's type (what the object stores), best effort.
	Type types.Type
	// Var is the variable for KVar cells.
	Var *types.Var
	// Fn is the enclosing declared function for function-local sites
	// (nil for package-level sites and KExtern). For KFunc objects of
	// declared functions or method values it is the function itself.
	Fn *types.Func
	// Lit is the literal for KFunc objects made from func literals.
	Lit *ast.FuncLit
	// Pkg is the analyzed package containing the site, nil for KExtern.
	Pkg *analysis.Package

	// recv, for bound-method KFunc objects, holds the receiver value's
	// node so indirect invocation can bind it.
	recv NodeID
}

// Pos returns the object's source position (NoPos for extern/inner).
func (o *Object) Pos() token.Pos {
	if o.Site != nil {
		return o.Site.Pos()
	}
	return token.NoPos
}

// Result is the solved points-to relation for one module.
type Result struct {
	Module *analysis.Module

	s       *Solver
	objects []*Object

	varN  map[*types.Var]NodeID
	exprN map[ast.Expr]NodeID
	retN  map[*types.Func][]NodeID
	fldID map[*types.Var]int32
	// fldPos canonicalizes generic instantiations: every instance of a
	// struct field shares the declaring position, so a field var from a
	// different instantiation than generation saw still resolves.
	fldPos map[token.Pos]int32
}

var cache sync.Map // *analysis.Module -> *Result

// Of computes (once per module, cached) the points-to relation.
func Of(m *analysis.Module) *Result {
	if r, ok := cache.Load(m); ok {
		return r.(*Result)
	}
	r := analyze(m)
	if prev, loaded := cache.LoadOrStore(m, r); loaded {
		return prev.(*Result)
	}
	return r
}

// Objects returns every abstract object, by ID.
func (r *Result) Objects() []*Object { return r.objects }

// Object returns the object with the given ID.
func (r *Result) Object(id ObjID) *Object { return r.objects[id] }

func (r *Result) objsOf(n NodeID) []*Object {
	if n < 0 {
		return nil
	}
	ids := r.s.PointsTo(n)
	out := make([]*Object, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.objects[id])
	}
	return out
}

// ExprObjects returns the objects expr may refer to, or nil when expr
// is untracked (not pointer-like, or not reached by generation).
func (r *Result) ExprObjects(e ast.Expr) []*Object {
	n, ok := r.exprN[e]
	if !ok {
		return nil
	}
	return r.objsOf(n)
}

// VarObjects returns the objects variable v may refer to.
func (r *Result) VarObjects(v *types.Var) []*Object {
	n, ok := r.varN[v]
	if !ok {
		return nil
	}
	return r.objsOf(n)
}

// ReturnObjects returns the objects result i of fn may refer to.
func (r *Result) ReturnObjects(fn *types.Func, i int) []*Object {
	rets := r.retN[fn.Origin()]
	if i >= len(rets) {
		return nil
	}
	return r.objsOf(rets[i])
}

// FieldObjects returns the objects stored in o's field f (nil f = the
// element pseudo-field).
func (r *Result) FieldObjects(o *Object, f *types.Var) []*Object {
	field := ElemField
	if f != nil {
		id, ok := r.fldID[f]
		if !ok {
			id, ok = r.fldPos[f.Pos()]
		}
		if !ok {
			return nil
		}
		field = id
	}
	return r.objsOf(r.s.FieldNode(o.ID, field))
}

// EvalObjects resolves the objects e may refer to. Generation registers
// expression nodes for loads only, so a store's base expression may be
// absent from the expression map; EvalObjects falls back to re-deriving
// the set structurally from the variable and field relations.
func (r *Result) EvalObjects(info *types.Info, e ast.Expr) []*Object {
	e = ast.Unparen(e)
	if objs := r.ExprObjects(e); len(objs) != 0 {
		return objs
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return r.VarObjects(v)
		}
	case *ast.SelectorExpr:
		sel := info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal || len(sel.Index()) != 1 {
			return nil
		}
		f, _ := sel.Obj().(*types.Var)
		var out []*Object
		for _, o := range r.EvalObjects(info, e.X) {
			out = append(out, r.FieldObjects(o, f)...)
		}
		return out
	case *ast.IndexExpr:
		var out []*Object
		for _, o := range r.EvalObjects(info, e.X) {
			out = append(out, r.FieldObjects(o, nil)...)
		}
		return out
	case *ast.SliceExpr:
		// A slice expression aliases its base's storage.
		return r.EvalObjects(info, e.X)
	}
	return nil
}

// MayAlias reports whether the two object sets intersect.
func (r *Result) MayAlias(as, bs []*Object) bool {
	if len(as) == 0 || len(bs) == 0 {
		return false
	}
	seen := map[ObjID]bool{}
	for _, o := range as {
		seen[o.ID] = true
	}
	for _, o := range bs {
		if seen[o.ID] {
			return true
		}
	}
	return false
}

// Reachable returns the transitive closure of seeds under field/element
// containment: an object is included when some field or element cell of
// an included object points to it. stop, when non-nil, prunes traversal:
// a stopped object is included but its fields are not followed.
func (r *Result) Reachable(seeds []*Object, stop func(*Object) bool) map[*Object]bool {
	out := map[*Object]bool{}
	var queue []*Object
	add := func(o *Object) {
		if !out[o] {
			out[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range seeds {
		add(o)
	}
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if stop != nil && stop(o) {
			continue
		}
		for _, fn := range r.fieldNodesOf(o.ID) {
			for _, id := range r.s.PointsTo(fn) {
				add(r.objects[id])
			}
		}
	}
	return out
}

// fieldNodesOf returns every materialized field/element node of o.
func (r *Result) fieldNodesOf(o ObjID) []NodeID {
	var out []NodeID
	for k, n := range r.s.field {
		if k.obj == o && n >= 0 {
			out = append(out, n)
		}
	}
	return out
}
