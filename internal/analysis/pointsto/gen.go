package pointsto

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// gen walks every declared function (and package-level initializer) of
// the module and emits solver constraints. Expression evaluation is
// memoized per ast.Expr, so revisiting syntax never duplicates
// constraints.
//
// Cell model: an abstract object is a memory CELL. A pointer holds the
// cells it may point at; a struct-typed variable holds its own KVar
// cell; `&x` therefore evaluates to x's cell set, and dereferencing a
// pointer-to-struct is the identity on points-to sets (the cells ARE
// the structs). Non-struct cells keep their contents in the Elem
// pseudo-field. This keeps value structs, pointers to structs, and
// auto-(de)referenced method receivers in one uniform rule set.
type gen struct {
	s *Solver
	m *analysis.Module

	decls map[*types.Func]*declInfo

	varN    map[*types.Var]NodeID
	exprN   map[ast.Expr]NodeID
	noNode  map[ast.Expr]bool // memoized "untracked" results
	retN    map[*types.Func][]NodeID
	callN   map[*ast.CallExpr][]NodeID
	litRets map[*ast.FuncLit][]NodeID
	litDone map[*ast.FuncLit]bool

	fldByPos map[token.Pos]int32
	fldByVar map[*types.Var]int32
	fldVar   map[int32]*types.Var // reverse map, for the solver's TypeFilter
	nextFld  int32

	funcObjs map[*types.Func]ObjID
	addrObjs map[*types.Var]ObjID
	varCells map[*types.Var]ObjID

	objects   []*Object
	externObj ObjID
	externN   NodeID // node holding exactly {externObj}

	pending []*pendingCall
	bound   map[bindKey]bool

	curPkg *analysis.Package
	curFn  *types.Func
}

type declInfo struct {
	decl *ast.FuncDecl
	pkg  *analysis.Package
}

type pendingCall struct {
	call    *ast.CallExpr
	pkg     *analysis.Package
	funNode NodeID // points to KFunc objects, or concrete receivers (iface)
	iface   *types.Func
	args    []NodeID
	argT    []types.Type
	results []NodeID
	spread  bool // call has `args...`
	matched bool // at least one target bound
}

type bindKey struct {
	call   *ast.CallExpr
	target ObjID       // func object, or
	method *types.Func // (iface) concrete method per receiver object
}

func analyze(m *analysis.Module) *Result {
	g := &gen{
		s:        NewSolver(),
		m:        m,
		decls:    map[*types.Func]*declInfo{},
		varN:     map[*types.Var]NodeID{},
		exprN:    map[ast.Expr]NodeID{},
		noNode:   map[ast.Expr]bool{},
		retN:     map[*types.Func][]NodeID{},
		callN:    map[*ast.CallExpr][]NodeID{},
		litRets:  map[*ast.FuncLit][]NodeID{},
		litDone:  map[*ast.FuncLit]bool{},
		fldByPos: map[token.Pos]int32{},
		fldByVar: map[*types.Var]int32{},
		fldVar:   map[int32]*types.Var{},
		nextFld:  NamedFieldBase,
		funcObjs: map[*types.Func]ObjID{},
		addrObjs: map[*types.Var]ObjID{},
		varCells: map[*types.Var]ObjID{},
		bound:    map[bindKey]bool{},
	}
	g.s.TypeFilter = g.typeFilter
	g.externObj = g.newObject(KExtern, nil, nil, nil)
	g.externN = g.s.NewNode()
	g.s.AddAddr(g.externN, g.externObj)
	// Extern memory points at extern memory.
	g.s.AddCopy(g.s.FieldNode(g.externObj, ElemField), g.externN)

	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil {
						g.decls[fn.Origin()] = &declInfo{decl: fd, pkg: pkg}
					}
				}
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					g.walkDecl(pkg, fn.Origin(), d)
				case *ast.GenDecl:
					g.walkGlobals(pkg, d)
				}
			}
		}
	}

	g.s.Solve()
	g.resolveIndirect()

	return &Result{
		Module:  m,
		s:       g.s,
		objects: g.objects,
		varN:    g.varN,
		exprN:   g.exprN,
		retN:    g.retN,
		fldID:   g.fldByVar,
		fldPos:  g.fldByPos,
	}
}

// resolveIndirect runs the outer fixpoint binding indirect call sites
// to the targets their points-to sets reveal, then blurs any site that
// never found a target.
func (g *gen) resolveIndirect() {
	for {
		added := false
		for _, pc := range g.pending {
			for _, id := range g.s.PointsTo(pc.funNode) {
				o := g.objects[id]
				if pc.iface != nil {
					if fn := g.concreteMethod(o, pc.iface); fn != nil {
						k := bindKey{call: pc.call, method: fn, target: id}
						if !g.bound[k] {
							g.bound[k] = true
							recvN := g.s.NewNode()
							g.s.AddAddr(recvN, id)
							g.bindTarget(pc, fn, nil, recvN)
							pc.matched = true
							added = true
						}
					}
					continue
				}
				if o.Kind != KFunc {
					continue
				}
				k := bindKey{call: pc.call, target: id}
				if g.bound[k] {
					continue
				}
				g.bound[k] = true
				g.bindTarget(pc, o.Fn, o.Lit, o.recv)
				pc.matched = true
				added = true
			}
		}
		g.s.Solve()
		if !added {
			break
		}
	}
	// Unmatched indirect calls: conservative extern blur.
	for _, pc := range g.pending {
		if pc.matched {
			continue
		}
		for _, a := range pc.args {
			g.blurIn(a)
		}
		sig, _ := pc.pkg.TypesInfo.TypeOf(pc.call.Fun).Underlying().(*types.Signature)
		g.blurResults(pc.results, sig)
	}
	g.s.Solve()
}

// concreteMethod resolves interface method m on receiver object o.
func (g *gen) concreteMethod(o *Object, m *types.Func) *types.Func {
	if o.Type == nil || o.Kind == KFunc || o.Kind == KExtern {
		return nil
	}
	for _, recv := range []types.Type{o.Type, types.NewPointer(o.Type)} {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// bindTarget wires pc's arguments/results to a resolved callee: a
// declared function, a func literal, or (externally declared) the blur.
func (g *gen) bindTarget(pc *pendingCall, fn *types.Func, lit *ast.FuncLit, recvN NodeID) {
	var sig *types.Signature
	var params []NodeID
	var rets []NodeID
	switch {
	case lit != nil:
		sig, _ = g.litType(pc.pkg, lit)
		if sig == nil {
			return
		}
		params = g.paramNodes(sig)
		rets = g.litRets[lit]
	case fn != nil:
		fn = fn.Origin()
		if g.decls[fn] == nil {
			// External target: blur.
			for _, a := range pc.args {
				g.blurIn(a)
			}
			g.blurResults(pc.results, fn.Signature())
			return
		}
		sig = fn.Signature()
		params = g.paramNodes(sig)
		rets = g.retNodes(fn)
	default:
		return
	}
	if recvN >= 0 && sig.Recv() != nil {
		g.assign(g.varNode(sig.Recv()), recvN, sig.Recv().Type())
	}
	g.bindArgs(sig, params, pc.args, pc.argT, pc.spread)
	for i, res := range pc.results {
		if res >= 0 && i < len(rets) && rets[i] >= 0 {
			g.s.AddCopy(res, rets[i])
		}
	}
}

func (g *gen) paramNodes(sig *types.Signature) []NodeID {
	out := make([]NodeID, sig.Params().Len())
	for i := range out {
		out[i] = g.varNode(sig.Params().At(i))
	}
	return out
}

// bindArgs assigns argument nodes to parameter nodes, packing variadic
// tails into a fresh slice object.
func (g *gen) bindArgs(sig *types.Signature, params, args []NodeID, argT []types.Type, spread bool) {
	np := sig.Params().Len()
	for i := 0; i < np; i++ {
		pv := sig.Params().At(i)
		if sig.Variadic() && i == np-1 && !spread {
			if params[i] < 0 {
				continue
			}
			pack := g.newObject(KAlloc, nil, g.curPkg, pv.Type())
			tmp := g.s.NewNode()
			g.s.AddAddr(tmp, pack)
			g.s.AddCopy(params[i], tmp)
			for j := i; j < len(args); j++ {
				if args[j] >= 0 {
					g.s.AddStore(tmp, ElemField, args[j])
				}
			}
			return
		}
		if i < len(args) && args[i] >= 0 && params[i] >= 0 {
			t := pv.Type()
			if i < len(argT) && argT[i] != nil {
				t = pv.Type() // parameter type drives the copy shape
			}
			g.assign(params[i], args[i], t)
		}
	}
}

func (g *gen) retNodes(fn *types.Func) []NodeID {
	fn = fn.Origin()
	if rets, ok := g.retN[fn]; ok {
		return rets
	}
	n := fn.Signature().Results().Len()
	rets := make([]NodeID, n)
	for i := range rets {
		if pointerLike(fn.Signature().Results().At(i).Type()) {
			rets[i] = g.s.NewNode()
		} else {
			rets[i] = -1
		}
	}
	g.retN[fn] = rets
	return rets
}

func (g *gen) litType(pkg *analysis.Package, lit *ast.FuncLit) (*types.Signature, bool) {
	sig, ok := pkg.TypesInfo.TypeOf(lit).(*types.Signature)
	return sig, ok
}

func (g *gen) newObject(kind Kind, site ast.Node, pkg *analysis.Package, t types.Type) ObjID {
	id := g.s.NewObject()
	g.objects = append(g.objects, &Object{
		ID:   id,
		Kind: kind,
		Site: site,
		Type: t,
		Pkg:  pkg,
		Fn:   g.curFn,
		recv: -1,
	})
	return id
}

func (g *gen) fieldID(v *types.Var) int32 {
	if v.Pos() != token.NoPos {
		if id, ok := g.fldByPos[v.Pos()]; ok {
			g.fldByVar[v] = id
			return id
		}
		id := g.nextFld
		g.nextFld++
		g.fldByPos[v.Pos()] = id
		g.fldByVar[v] = id
		g.fldVar[id] = v
		return id
	}
	if id, ok := g.fldByVar[v]; ok {
		return id
	}
	id := g.nextFld
	g.nextFld++
	g.fldByVar[v] = id
	g.fldVar[id] = v
	return id
}

// typeFilter is the solver's TypeFilter: it vetoes named-field cells on
// objects whose type cannot declare that field. Elem/MapKey are the cell
// model's generic contents slots and stay unrestricted; function objects
// carry no writable cells at all. Without the veto, any object carried
// through an over-merged node (most often the extern blur) accretes the
// field cells of every unrelated store that fires over that node.
func (g *gen) typeFilter(o ObjID, field int32) bool {
	obj := g.objects[o]
	if obj.Kind == KFunc {
		return false
	}
	if field == ElemField || field == MapKeyField {
		return true
	}
	if obj.Type == nil {
		return true // extern and typeless cells: no veto
	}
	return hasFieldAtPos(obj.Type, g.fldVar[field], 0)
}

// hasFieldAtPos reports whether t (a struct or pointer-to-struct, after
// Named unwrapping) declares a field sharing f's declaration position —
// directly or promoted through embedding. Position identity is how
// fieldID canonicalizes generic instantiations, so it is the comparison
// here too.
func hasFieldAtPos(t types.Type, f *types.Var, depth int) bool {
	if f == nil || depth > 8 {
		return true // unknown field or pathological nesting: no veto
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		sf := st.Field(i)
		if sf.Pos() == f.Pos() {
			return true
		}
		if sf.Anonymous() && hasFieldAtPos(sf.Type(), f, depth+1) {
			return true
		}
	}
	return false
}

// varNode returns (creating on demand) the node of variable v. Aggregate
// (struct/array) variables are seeded with their own storage cell.
func (g *gen) varNode(v *types.Var) NodeID {
	if v == nil || v.Name() == "_" || !pointerLike(v.Type()) {
		return -1
	}
	if n, ok := g.varN[v]; ok {
		return n
	}
	n := g.s.NewNode()
	g.varN[v] = n
	if isAggregate(v.Type()) {
		obj := g.newObject(KVar, declIdent(v), g.pkgOf(v), v.Type())
		g.objects[obj].Var = v
		g.varCells[v] = obj
		g.s.AddAddr(n, obj)
		g.seedAggregate(obj, v.Type(), 0, nil)
	}
	return n
}

func declIdent(v *types.Var) ast.Node { return posNode{v.Pos()} }

// posNode lets a bare position stand in for syntax in Object.Site.
type posNode struct{ pos token.Pos }

func (p posNode) Pos() token.Pos { return p.pos }
func (p posNode) End() token.Pos { return p.pos }

func (g *gen) pkgOf(v *types.Var) *analysis.Package {
	if v.Pkg() == nil {
		return nil
	}
	for _, pkg := range g.m.Pkgs {
		if pkg.Types == v.Pkg() {
			return pkg
		}
	}
	return nil
}

// seedAggregate gives struct-typed (and aggregate-element) cells inside
// obj their own KInner objects so stores through nested value fields
// always have a target. Depth-capped; recursive types cut off via seen.
func (g *gen) seedAggregate(obj ObjID, t types.Type, depth int, seen []types.Type) {
	if depth > 4 {
		return
	}
	for _, s := range seen {
		if types.Identical(s, t) {
			return
		}
	}
	seen = append(seen, t)
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !pointerLike(f.Type()) {
				continue
			}
			if isAggregate(f.Type()) {
				inner := g.newObject(KInner, nil, nil, f.Type())
				g.s.AddAddr(g.s.FieldNode(obj, g.fieldID(f)), inner)
				g.seedAggregate(inner, f.Type(), depth+1, seen)
			}
		}
	case *types.Array:
		if pointerLike(u.Elem()) && isAggregate(u.Elem()) {
			inner := g.newObject(KInner, nil, nil, u.Elem())
			g.s.AddAddr(g.s.FieldNode(obj, ElemField), inner)
			g.seedAggregate(inner, u.Elem(), depth+1, seen)
		}
	}
}

// seedParam gives a declared function's pointer-like parameter a
// symbolic KParam object — "whatever the caller passed" — so alias
// queries inside the function are meaningful even when no analyzed
// caller binds the parameter. Aggregate parameters already own a KVar
// cell from varNode.
func (g *gen) seedParam(v *types.Var) {
	n := g.varNode(v)
	if n < 0 {
		return
	}
	if isAggregate(v.Type()) {
		if cell, ok := g.varCells[v]; ok {
			g.symFields(cell, v.Type(), 1)
		}
		return
	}
	if o, ok := g.symValue(v.Type(), 0); ok {
		g.s.AddAddr(n, o)
	}
}

// symValue builds a symbolic cell for an unknown value of type t,
// expanding its reachable structure two levels deep.
func (g *gen) symValue(t types.Type, depth int) (ObjID, bool) {
	if depth > 2 {
		return 0, false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		et := u.Elem()
		o := g.newObject(KParam, nil, nil, et)
		if isAggregate(et) {
			g.symFields(o, et, depth+1)
		} else if pointerLike(et) {
			if eo, ok := g.symValue(et, depth+1); ok {
				g.s.AddAddr(g.s.FieldNode(o, ElemField), eo)
			}
		}
		return o, true
	case *types.Slice:
		return g.symContainer(t, u.Elem(), depth)
	case *types.Map:
		return g.symContainer(t, u.Elem(), depth)
	case *types.Chan:
		return g.symContainer(t, u.Elem(), depth)
	case *types.Struct, *types.Array:
		o := g.newObject(KParam, nil, nil, t)
		g.symFields(o, t, depth+1)
		return o, true
	}
	return 0, false
}

func (g *gen) symContainer(t, elem types.Type, depth int) (ObjID, bool) {
	o := g.newObject(KParam, nil, nil, t)
	if pointerLike(elem) {
		if eo, ok := g.symValue(elem, depth+1); ok {
			g.s.AddAddr(g.s.FieldNode(o, ElemField), eo)
		}
	}
	return o, true
}

// symFields populates a symbolic aggregate cell's pointer-like fields.
func (g *gen) symFields(o ObjID, t types.Type, depth int) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !pointerLike(f.Type()) {
				continue
			}
			if fo, ok := g.symValue(f.Type(), depth); ok {
				g.s.AddAddr(g.s.FieldNode(o, g.fieldID(f)), fo)
			}
		}
	case *types.Array:
		if pointerLike(u.Elem()) {
			if eo, ok := g.symValue(u.Elem(), depth); ok {
				g.s.AddAddr(g.s.FieldNode(o, ElemField), eo)
			}
		}
	}
}

// seedElemCell seeds the element cell of a fresh slice/map/chan/pointer
// object whose element type is an aggregate.
func (g *gen) seedElemCell(obj ObjID, elem types.Type) {
	if elem == nil || !pointerLike(elem) || !isAggregate(elem) {
		return
	}
	inner := g.newObject(KInner, nil, nil, elem)
	g.s.AddAddr(g.s.FieldNode(obj, ElemField), inner)
	g.seedAggregate(inner, elem, 1, nil)
}

// pointerLike reports whether values of type t can refer to memory.
func pointerLike(t types.Type) bool {
	return pointerLikeDepth(t, 0)
}

func pointerLikeDepth(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return depth > 8 // deep recursion: assume yes, stay sound
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerLikeDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return pointerLikeDepth(u.Elem(), depth+1)
	case *types.TypeParam:
		return true
	}
	return true // unknown type forms: conservative
}

// isAggregate reports whether t's values are modeled as storage cells
// of their own (struct or array).
func isAggregate(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func isStructish(t types.Type) bool { return t != nil && isAggregate(t) }

// blurIn routes a node's objects into the extern blur.
func (g *gen) blurIn(n NodeID) {
	if n >= 0 {
		g.s.AddStore(g.externN, ElemField, n)
	}
}

// blurOut makes a node receive the extern blur, restricted to the
// objects a value of type t could actually refer to. Without the type
// restriction every unanalyzed call result would alias everything ever
// passed to unanalyzed code — os.Environ() aliasing a []*Vertex the
// module once handed to sort.Slice. A nil t admits everything.
func (g *gen) blurOut(n NodeID, t types.Type) {
	if n < 0 {
		return
	}
	elem := g.s.FieldNode(g.externObj, ElemField)
	if t == nil {
		g.s.AddCopy(n, elem)
		return
	}
	g.s.AddFilteredCopy(n, elem, g.blurKeep(t))
}

// blurResults blurs each call result with its declared type.
func (g *gen) blurResults(results []NodeID, sig *types.Signature) {
	for i, res := range results {
		var t types.Type
		if sig != nil && i < sig.Results().Len() {
			t = sig.Results().At(i).Type()
		}
		g.blurOut(res, t)
	}
}

func (g *gen) blurKeep(t types.Type) func(ObjID) bool {
	return func(o ObjID) bool {
		obj := g.objects[o]
		if obj.Type == nil {
			return true // the extern object itself
		}
		return blurCompatible(obj.Type, t)
	}
}

// blurCompatible reports whether a cell of type objT could be referred
// to by a value of type t flowing out of unanalyzed code. Cells are
// compared by the value they store: pointer results match cells of
// their pointee type, reference results (slice/map/chan) match cells
// carrying the same reference type, interface results match anything.
func blurCompatible(objT, t types.Type) bool {
	if containsTypeParam(objT, 0) || containsTypeParam(t, 0) {
		return true // uninstantiated generics: no precise comparison
	}
	switch u := t.Underlying().(type) {
	case *types.Interface:
		return true
	case *types.Pointer:
		return types.Identical(objT.Underlying(), u.Elem().Underlying()) ||
			types.Identical(objT.Underlying(), u)
	case *types.Signature:
		_, ok := objT.Underlying().(*types.Signature)
		return ok
	default:
		return types.Identical(objT.Underlying(), u)
	}
}

// containsTypeParam reports whether t mentions a type parameter (capped
// structural walk; false negatives only at absurd nesting depth).
func containsTypeParam(t types.Type, depth int) bool {
	if depth > 6 {
		return true // give up conservatively
	}
	switch u := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		if u.TypeParams().Len() > 0 && u.TypeArgs().Len() == 0 {
			return true
		}
		for i := 0; i < u.TypeArgs().Len(); i++ {
			if containsTypeParam(u.TypeArgs().At(i), depth+1) {
				return true
			}
		}
		return false
	case *types.Pointer:
		return containsTypeParam(u.Elem(), depth+1)
	case *types.Slice:
		return containsTypeParam(u.Elem(), depth+1)
	case *types.Array:
		return containsTypeParam(u.Elem(), depth+1)
	case *types.Chan:
		return containsTypeParam(u.Elem(), depth+1)
	case *types.Map:
		return containsTypeParam(u.Key(), depth+1) || containsTypeParam(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsTypeParam(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Signature:
		return containsTypeParam(u.Params(), depth+1) || containsTypeParam(u.Results(), depth+1)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if containsTypeParam(u.At(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return false
}

// ---- walking ----

// owner identifies the function unit a return statement belongs to.
type owner struct {
	sig  *types.Signature
	rets []NodeID
}

func (g *gen) walkDecl(pkg *analysis.Package, fn *types.Func, d *ast.FuncDecl) {
	g.curPkg, g.curFn = pkg, fn
	defer func() { g.curFn = nil }()
	sig := fn.Signature()
	if sig.Recv() != nil {
		g.varNode(sig.Recv())
		g.seedParam(sig.Recv())
	}
	g.paramNodes(sig)
	for i := 0; i < sig.Params().Len(); i++ {
		g.seedParam(sig.Params().At(i))
	}
	ow := &owner{sig: sig, rets: g.retNodes(fn)}
	g.walkUnit(pkg, d.Body, ow)
	g.flushNamedResults(sig, ow.rets)
}

func (g *gen) flushNamedResults(sig *types.Signature, rets []NodeID) {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		v := res.At(i)
		if v.Name() != "" && v.Name() != "_" {
			if n := g.varNode(v); n >= 0 && i < len(rets) && rets[i] >= 0 {
				g.s.AddCopy(rets[i], n)
			}
		}
	}
}

func (g *gen) walkGlobals(pkg *analysis.Package, d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	g.curPkg, g.curFn = pkg, nil
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		g.handleVarSpec(pkg, vs)
	}
}

func (g *gen) handleVarSpec(pkg *analysis.Package, vs *ast.ValueSpec) {
	info := pkg.TypesInfo
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		// var a, b = f()
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			g.nodeOf(pkg, call)
			results := g.callN[call]
			for i, name := range vs.Names {
				v, _ := info.Defs[name].(*types.Var)
				if v == nil {
					continue
				}
				dst := g.varNode(v)
				if dst >= 0 && i < len(results) && results[i] >= 0 {
					g.assign(dst, results[i], v.Type())
				}
			}
			return
		}
	}
	for i, name := range vs.Names {
		v, _ := info.Defs[name].(*types.Var)
		if v == nil {
			continue
		}
		dst := g.varNode(v)
		if i < len(vs.Values) {
			src := g.nodeOf(pkg, vs.Values[i])
			if dst >= 0 && src >= 0 {
				g.assign(dst, src, v.Type())
			}
		}
	}
}

// walkUnit processes one function body. Nested literals are walked by
// nodeOf (with their own owner); the inspection prunes them here.
func (g *gen) walkUnit(pkg *analysis.Package, body ast.Node, ow *owner) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.nodeOf(pkg, n)
			return false
		case *ast.AssignStmt:
			g.handleAssign(pkg, n)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						g.handleVarSpec(pkg, vs)
					}
				}
			}
		case *ast.RangeStmt:
			g.handleRange(pkg, n)
		case *ast.ReturnStmt:
			g.handleReturn(pkg, n, ow)
		case *ast.SendStmt:
			ch := g.nodeOf(pkg, n.Chan)
			v := g.nodeOf(pkg, n.Value)
			if ch >= 0 && v >= 0 {
				g.s.AddStore(ch, ElemField, v)
			}
		case *ast.TypeSwitchStmt:
			g.handleTypeSwitch(pkg, n)
		case *ast.CallExpr:
			g.nodeOf(pkg, n)
		case *ast.CompositeLit:
			g.nodeOf(pkg, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND || n.Op == token.ARROW {
				g.nodeOf(pkg, n)
			}
		}
		return true
	})
}

func (g *gen) handleReturn(pkg *analysis.Package, ret *ast.ReturnStmt, ow *owner) {
	if ow == nil || len(ret.Results) == 0 {
		return
	}
	if len(ret.Results) == 1 && ow.sig.Results().Len() > 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			g.nodeOf(pkg, call)
			for i, res := range g.callN[call] {
				if i < len(ow.rets) && ow.rets[i] >= 0 && res >= 0 {
					g.s.AddCopy(ow.rets[i], res)
				}
			}
			return
		}
	}
	for i, e := range ret.Results {
		src := g.nodeOf(pkg, e)
		if i < len(ow.rets) && ow.rets[i] >= 0 && src >= 0 {
			g.s.AddCopy(ow.rets[i], src)
		}
	}
}

func (g *gen) handleTypeSwitch(pkg *analysis.Package, sw *ast.TypeSwitchStmt) {
	info := pkg.TypesInfo
	// The switched expression.
	var src NodeID = -1
	switch s := sw.Assign.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if ta, ok := ast.Unparen(s.Rhs[0]).(*ast.TypeAssertExpr); ok {
				src = g.nodeOf(pkg, ta.X)
			}
		}
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(s.X).(*ast.TypeAssertExpr); ok {
			src = g.nodeOf(pkg, ta.X)
		}
	}
	if src < 0 {
		return
	}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if v, ok := info.Implicits[cc].(*types.Var); ok {
			if dst := g.varNode(v); dst >= 0 {
				g.assign(dst, src, v.Type())
			}
		}
	}
}

func (g *gen) handleRange(pkg *analysis.Package, r *ast.RangeStmt) {
	info := pkg.TypesInfo
	x := g.nodeOf(pkg, r.X)
	t := info.TypeOf(r.X)
	if t == nil {
		return
	}
	assignVar := func(e ast.Expr, field int32, vt types.Type) {
		if e == nil || x < 0 {
			return
		}
		tmp := g.s.NewNode()
		g.s.AddLoad(tmp, x, field)
		g.assignToLValue(pkg, e, tmp, vt)
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		assignVar(r.Value, ElemField, u.Elem())
	case *types.Array:
		assignVar(r.Value, ElemField, u.Elem())
	case *types.Pointer: // *[N]T
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			assignVar(r.Value, ElemField, arr.Elem())
		}
	case *types.Map:
		assignVar(r.Key, MapKeyField, u.Key())
		assignVar(r.Value, ElemField, u.Elem())
	case *types.Chan:
		assignVar(r.Key, ElemField, u.Elem())
	case *types.Signature:
		// range-over-func: conservative blur of the iterator.
		g.blurIn(x)
	}
}

func (g *gen) handleAssign(pkg *analysis.Package, as *ast.AssignStmt) {
	info := pkg.TypesInfo
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			src := g.nodeOf(pkg, as.Rhs[i])
			if src < 0 {
				continue
			}
			g.assignToLValue(pkg, as.Lhs[i], src, info.TypeOf(as.Lhs[i]))
		}
		return
	}
	if len(as.Rhs) != 1 {
		return
	}
	// Tuple forms: call, comma-ok map/chan/assert.
	rhs := ast.Unparen(as.Rhs[0])
	var results []NodeID
	switch r := rhs.(type) {
	case *ast.CallExpr:
		g.nodeOf(pkg, r)
		results = g.callN[r]
	case *ast.TypeAssertExpr:
		results = []NodeID{g.nodeOf(pkg, r.X), -1}
	case *ast.IndexExpr: // v, ok := m[k]
		base := g.nodeOf(pkg, r.X)
		tmp := NodeID(-1)
		if base >= 0 {
			tmp = g.s.NewNode()
			g.s.AddLoad(tmp, base, ElemField)
		}
		results = []NodeID{tmp, -1}
	case *ast.UnaryExpr: // v, ok := <-ch
		if r.Op == token.ARROW {
			base := g.nodeOf(pkg, r.X)
			tmp := NodeID(-1)
			if base >= 0 {
				tmp = g.s.NewNode()
				g.s.AddLoad(tmp, base, ElemField)
			}
			results = []NodeID{tmp, -1}
		}
	}
	for i, lhs := range as.Lhs {
		if i < len(results) && results[i] >= 0 {
			g.assignToLValue(pkg, lhs, results[i], info.TypeOf(lhs))
		}
	}
}

// assignToLValue stores src into the location named by lhs.
func (g *gen) assignToLValue(pkg *analysis.Package, lhs ast.Expr, src NodeID, t types.Type) {
	info := pkg.TypesInfo
	lhs = ast.Unparen(lhs)
	if t != nil && !pointerLike(t) {
		return
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		v, _ := info.Defs[l].(*types.Var)
		if v == nil {
			v, _ = info.Uses[l].(*types.Var)
		}
		if dst := g.varNode(v); dst >= 0 {
			g.assign(dst, src, t)
		}
	case *ast.SelectorExpr:
		if f := fieldOf(info, l); f != nil {
			base := g.selBase(pkg, l)
			if base >= 0 {
				if isStructish(t) {
					cell := g.s.NewNode()
					g.s.AddLoad(cell, base, g.fieldID(f))
					g.assignStruct(cell, src, t)
				}
				g.s.AddStore(base, g.fieldID(f), src)
			}
			return
		}
		// Qualified package var: pkg.X
		if v, ok := info.Uses[l.Sel].(*types.Var); ok {
			if dst := g.varNode(v); dst >= 0 {
				g.assign(dst, src, t)
			}
		}
	case *ast.IndexExpr:
		base := g.nodeOf(pkg, l.X)
		if base < 0 {
			return
		}
		if bt := info.TypeOf(l.X); bt != nil {
			if mt, ok := bt.Underlying().(*types.Map); ok {
				if k := g.nodeOf(pkg, l.Index); k >= 0 {
					g.s.AddStore(base, MapKeyField, k)
				}
				_ = mt
			}
		}
		if isStructish(t) {
			cell := g.s.NewNode()
			g.s.AddLoad(cell, base, ElemField)
			g.assignStruct(cell, src, t)
		}
		g.s.AddStore(base, ElemField, src)
	case *ast.StarExpr:
		base := g.nodeOf(pkg, l.X)
		if base < 0 {
			return
		}
		if isStructish(t) {
			// The pointed-at cells ARE the struct objects.
			g.assignStruct(base, src, t)
			return
		}
		g.s.AddStore(base, ElemField, src)
	}
}

// assign is the generic value copy: plain inclusion for references,
// field-wise cell copy for aggregates.
func (g *gen) assign(dst, src NodeID, t types.Type) {
	if dst < 0 || src < 0 {
		return
	}
	if isStructish(t) {
		g.assignStruct(dst, src, t)
		// Also propagate the cell identity: `y := x` then `&y` vs `&x`
		// are distinct cells, but y's set keeps its own KVar object from
		// varNode seeding, so copying the sets here would merge cells.
		// Instead only fields flow. (Aliases of x and y stay distinct.)
		return
	}
	g.s.AddCopy(dst, src)
}

// assignStruct copies every pointer-like field between the cells in dst
// and src (both nodes hold struct cell objects).
func (g *gen) assignStruct(dst, src NodeID, t types.Type) {
	if dst < 0 || src < 0 || t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !pointerLike(f.Type()) {
				continue
			}
			tmp := g.s.NewNode()
			g.s.AddLoad(tmp, src, g.fieldID(f))
			g.s.AddStore(dst, g.fieldID(f), tmp)
		}
	case *types.Array:
		if pointerLike(u.Elem()) {
			tmp := g.s.NewNode()
			g.s.AddLoad(tmp, src, ElemField)
			g.s.AddStore(dst, ElemField, tmp)
		}
	}
}

// selBase evaluates the base of a field selection, walking the implicit
// field path of embedded fields. The cell model auto-dereferences
// pointers (pointer sets hold the struct cells), so no * handling is
// needed.
func (g *gen) selBase(pkg *analysis.Package, sel *ast.SelectorExpr) NodeID {
	info := pkg.TypesInfo
	base := g.nodeOf(pkg, sel.X)
	s, ok := info.Selections[sel]
	if !ok || base < 0 {
		return base
	}
	// For embedded fields the path is [e1, e2, ..., f]; the base of the
	// final store/load is everything but the last step.
	idx := s.Index()
	t := info.TypeOf(sel.X)
	for _, step := range idx[:len(idx)-1] {
		st := derefStruct(t)
		if st == nil {
			return base
		}
		f := st.Field(step)
		tmp := g.s.NewNode()
		g.s.AddLoad(tmp, base, g.fieldID(f))
		base = tmp
		t = f.Type()
	}
	return base
}

func derefStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// fieldOf resolves sel to the struct field it selects, excluding fields
// of the sync/atomic wrapper types, whose method API is safe by
// construction.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	f, ok := selection.Obj().(*types.Var)
	if !ok || !f.IsField() {
		return nil
	}
	if named, ok := f.Type().(*types.Named); ok {
		if p := named.Obj().Pkg(); p != nil && p.Path() == "sync/atomic" {
			return nil
		}
	}
	return f
}
