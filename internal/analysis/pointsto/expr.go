package pointsto

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// nodeOf evaluates expr to the node holding its points-to set, emitting
// constraints on first visit. Returns -1 for untracked (non-pointer)
// expressions. Memoized per ast.Expr.
func (g *gen) nodeOf(pkg *analysis.Package, expr ast.Expr) NodeID {
	if expr == nil {
		return -1
	}
	expr = ast.Unparen(expr)
	if n, ok := g.exprN[expr]; ok {
		return n
	}
	if g.noNode[expr] {
		return -1
	}
	n := g.evalExpr(pkg, expr)
	if n >= 0 {
		g.exprN[expr] = n
	} else {
		g.noNode[expr] = true
	}
	return n
}

func (g *gen) evalExpr(pkg *analysis.Package, expr ast.Expr) NodeID {
	info := pkg.TypesInfo
	t := info.TypeOf(expr)
	switch e := expr.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		switch o := obj.(type) {
		case *types.Var:
			return g.varNode(o)
		case *types.Func:
			return g.funcValueNode(o, -1)
		}
		return -1

	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.FieldVal:
				f := fieldOf(info, e)
				base := g.selBase(pkg, e)
				if f == nil || base < 0 {
					return -1
				}
				if !pointerLike(f.Type()) {
					return -1
				}
				tmp := g.s.NewNode()
				g.s.AddLoad(tmp, base, g.fieldID(f))
				return tmp
			case types.MethodVal:
				fn, _ := info.Uses[e.Sel].(*types.Func)
				if fn == nil {
					return -1
				}
				return g.funcValueNode(fn, g.nodeOf(pkg, e.X))
			case types.MethodExpr:
				fn, _ := info.Uses[e.Sel].(*types.Func)
				if fn == nil {
					return -1
				}
				return g.funcValueNode(fn, -1)
			}
			return -1
		}
		// Qualified ident: pkg.X
		switch o := info.Uses[e.Sel].(type) {
		case *types.Var:
			return g.varNode(o)
		case *types.Func:
			return g.funcValueNode(o, -1)
		}
		return -1

	case *ast.IndexExpr:
		// Generic instantiation? Then this denotes the function itself.
		if fn, ok := info.Uses[baseIdentOf(e.X)].(*types.Func); ok && isFuncExpr(info, e.X) {
			return g.funcValueNode(fn, -1)
		}
		return g.indexLoad(pkg, e.X)
	case *ast.IndexListExpr:
		if fn, ok := info.Uses[baseIdentOf(e.X)].(*types.Func); ok && isFuncExpr(info, e.X) {
			return g.funcValueNode(fn, -1)
		}
		return -1

	case *ast.SliceExpr:
		return g.nodeOf(pkg, e.X)

	case *ast.StarExpr:
		base := g.nodeOf(pkg, e.X)
		if base < 0 || t == nil || !pointerLike(t) {
			return -1
		}
		if isStructish(t) {
			return base // pointed-at cells are the struct objects
		}
		tmp := g.s.NewNode()
		g.s.AddLoad(tmp, base, ElemField)
		return tmp

	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			return g.addrOf(pkg, e.X)
		case token.ARROW:
			base := g.nodeOf(pkg, e.X)
			if base < 0 {
				return -1
			}
			tmp := g.s.NewNode()
			g.s.AddLoad(tmp, base, ElemField)
			return tmp
		}
		return -1

	case *ast.CompositeLit:
		return g.compositeNode(pkg, e, t)

	case *ast.FuncLit:
		return g.funcLitNode(pkg, e)

	case *ast.CallExpr:
		return g.callNode(pkg, e)

	case *ast.TypeAssertExpr:
		if e.Type == nil {
			return -1
		}
		return g.nodeOf(pkg, e.X)

	case *ast.BinaryExpr, *ast.BasicLit, *ast.KeyValueExpr,
		*ast.ArrayType, *ast.MapType, *ast.StructType, *ast.ChanType,
		*ast.FuncType, *ast.InterfaceType, *ast.Ellipsis:
		return -1
	}
	return -1
}

func baseIdentOf(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

func isFuncExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func (g *gen) indexLoad(pkg *analysis.Package, base ast.Expr) NodeID {
	b := g.nodeOf(pkg, base)
	if b < 0 {
		return -1
	}
	bt := pkg.TypesInfo.TypeOf(base)
	if bt != nil {
		if basic, ok := bt.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
			return -1
		}
	}
	tmp := g.s.NewNode()
	g.s.AddLoad(tmp, b, ElemField)
	return tmp
}

// addrOf evaluates &x. In the cell model the address of an aggregate is
// its cell set; the address of a scalar local is a one-off KVar cell
// whose element is kept in sync with the variable's own node; the
// address of a field/element is approximated by the enclosing cells.
func (g *gen) addrOf(pkg *analysis.Package, x ast.Expr) NodeID {
	info := pkg.TypesInfo
	x = ast.Unparen(x)
	switch e := x.(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		if v == nil {
			return -1
		}
		if isAggregate(v.Type()) {
			return g.varNode(v)
		}
		return g.scalarAddr(v)
	case *ast.CompositeLit:
		return g.nodeOf(pkg, e)
	case *ast.StarExpr:
		return g.nodeOf(pkg, e.X) // &*p == p
	case *ast.SelectorExpr:
		if f := fieldOf(info, e); f != nil {
			if isAggregate(f.Type()) {
				// The field cell objects themselves.
				base := g.selBase(pkg, e)
				if base < 0 {
					return -1
				}
				tmp := g.s.NewNode()
				g.s.AddLoad(tmp, base, g.fieldID(f))
				return tmp
			}
			// Pointer-to-scalar-field: approximate by the holder cells;
			// stores through it blur into the holder's element bucket.
			return g.selBase(pkg, e)
		}
		// &pkg.Var
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			if isAggregate(v.Type()) {
				return g.varNode(v)
			}
			return g.scalarAddr(v)
		}
		return -1
	case *ast.IndexExpr:
		et := info.TypeOf(x)
		if et != nil && isAggregate(et) {
			return g.indexLoad(pkg, e.X) // element cells
		}
		return g.nodeOf(pkg, e.X) // approximate: the backing store
	}
	return g.nodeOf(pkg, x)
}

// scalarAddr returns the cell object of an address-taken scalar
// variable; loads and stores through the pointer flow through the
// cell's element node, which is wired to the variable's own node.
func (g *gen) scalarAddr(v *types.Var) NodeID {
	obj, ok := g.addrObjs[v]
	if !ok {
		obj = g.newObject(KVar, declIdent(v), g.pkgOf(v), v.Type())
		g.objects[obj].Var = v
		g.addrObjs[v] = obj
		if vn := g.varNode(v); vn >= 0 {
			elem := g.s.FieldNode(obj, ElemField)
			g.s.AddCopy(elem, vn)
			g.s.AddCopy(vn, elem)
		}
	}
	n := g.s.NewNode()
	g.s.AddAddr(n, obj)
	return n
}

// funcValueNode returns a node holding the KFunc object of fn (one per
// function), or a fresh bound-method object when recvN >= 0.
func (g *gen) funcValueNode(fn *types.Func, recvN NodeID) NodeID {
	fn = fn.Origin()
	if recvN >= 0 {
		obj := g.newObject(KFunc, nil, g.curPkg, fn.Type())
		g.objects[obj].Fn = fn
		g.objects[obj].recv = recvN
		n := g.s.NewNode()
		g.s.AddAddr(n, obj)
		return n
	}
	obj, ok := g.funcObjs[fn]
	if !ok {
		obj = g.newObject(KFunc, nil, nil, fn.Type())
		g.objects[obj].Fn = fn
		if di := g.decls[fn]; di != nil {
			g.objects[obj].Site = di.decl.Name
			g.objects[obj].Pkg = di.pkg
		}
		g.funcObjs[fn] = obj
	}
	n := g.s.NewNode()
	g.s.AddAddr(n, obj)
	return n
}

// funcLitNode creates the literal's KFunc object and walks its body
// under its own owner (once).
func (g *gen) funcLitNode(pkg *analysis.Package, lit *ast.FuncLit) NodeID {
	sig, ok := g.litType(pkg, lit)
	if !ok {
		return -1
	}
	obj := g.newObject(KFunc, lit, pkg, sig)
	g.objects[obj].Lit = lit
	n := g.s.NewNode()
	g.s.AddAddr(n, obj)
	g.exprN[lit] = n // pre-memo: recursive literals
	if !g.litDone[lit] {
		g.litDone[lit] = true
		rets := make([]NodeID, sig.Results().Len())
		for i := range rets {
			if pointerLike(sig.Results().At(i).Type()) {
				rets[i] = g.s.NewNode()
			} else {
				rets[i] = -1
			}
		}
		g.litRets[lit] = rets
		g.paramNodes(sig)
		ow := &owner{sig: sig, rets: rets}
		g.walkUnit(pkg, lit.Body, ow)
		g.flushNamedResults(sig, rets)
	}
	return n
}

// compositeNode creates the literal's object and stores its elements.
func (g *gen) compositeNode(pkg *analysis.Package, lit *ast.CompositeLit, t types.Type) NodeID {
	info := pkg.TypesInfo
	if t == nil {
		return -1
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		// &T{...} desugared by the type checker ([]*T{{...}} elements).
		t = p.Elem()
	}
	if !pointerLike(t) {
		return -1
	}
	obj := g.newObject(KAlloc, lit, pkg, t)
	self := g.s.NewNode()
	g.s.AddAddr(self, obj)
	g.exprN[lit] = self

	switch u := t.Underlying().(type) {
	case *types.Struct:
		g.seedAggregate(obj, t, 0, nil)
		for i, elt := range lit.Elts {
			var f *types.Var
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
				if id, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < u.NumFields(); j++ {
						if u.Field(j).Name() == id.Name {
							f = u.Field(j)
							break
						}
					}
				}
			} else if i < u.NumFields() {
				f = u.Field(i)
			}
			if f == nil || !pointerLike(f.Type()) {
				continue
			}
			if src := g.nodeOf(pkg, val); src >= 0 {
				g.s.AddStore(self, g.fieldID(f), src)
			}
		}
	case *types.Slice, *types.Array:
		var et types.Type
		switch uu := u.(type) {
		case *types.Slice:
			et = uu.Elem()
		case *types.Array:
			et = uu.Elem()
		}
		g.seedElemCell(obj, et)
		for _, elt := range lit.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if src := g.nodeOf(pkg, val); src >= 0 {
				g.s.AddStore(self, ElemField, src)
			}
		}
	case *types.Map:
		g.seedElemCell(obj, u.Elem())
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if k := g.nodeOf(pkg, kv.Key); k >= 0 {
				g.s.AddStore(self, MapKeyField, k)
			}
			if v := g.nodeOf(pkg, kv.Value); v >= 0 {
				g.s.AddStore(self, ElemField, v)
			}
		}
	}
	_ = info
	return self
}

// callNode evaluates a call expression: builtin, conversion, static
// call, or indirect (pending) call. Returns the first result's node.
func (g *gen) callNode(pkg *analysis.Package, call *ast.CallExpr) NodeID {
	info := pkg.TypesInfo
	if _, done := g.callN[call]; done {
		res := g.callN[call]
		if len(res) > 0 {
			return res[0]
		}
		return -1
	}

	// Conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return g.conversionNode(pkg, call)
	}
	// Builtin?
	if id := baseIdentOf(call.Fun); id != nil {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return g.builtinNode(pkg, call, b.Name())
		}
	}

	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	results := g.resultNodes(sig)
	g.callN[call] = results

	args := make([]NodeID, len(call.Args))
	argT := make([]types.Type, len(call.Args))
	for i, a := range call.Args {
		args[i] = g.nodeOf(pkg, a)
		argT[i] = info.TypeOf(a)
	}
	spread := call.Ellipsis.IsValid()

	fn := analysis.Callee(info, call)
	if fn != nil {
		fn = fn.Origin()
		// Interface method call? Resolve from receiver points-to.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if types.IsInterface(s.Recv()) {
					g.pending = append(g.pending, &pendingCall{
						call: call, pkg: pkg, iface: fn,
						funNode: g.nodeOf(pkg, sel.X),
						args:    args, argT: argT, results: results, spread: spread,
					})
					if len(results) > 0 {
						return results[0]
					}
					return -1
				}
				// Concrete method: static bind with receiver.
				g.bindStatic(pkg, call, fn, g.nodeOf(pkg, sel.X), args, argT, results, spread)
				if len(results) > 0 {
					return results[0]
				}
				return -1
			}
		}
		g.bindStatic(pkg, call, fn, -1, args, argT, results, spread)
		if len(results) > 0 {
			return results[0]
		}
		return -1
	}

	// Indirect call through a func value.
	funN := g.nodeOf(pkg, call.Fun)
	if funN >= 0 {
		g.pending = append(g.pending, &pendingCall{
			call: call, pkg: pkg, funNode: funN,
			args: args, argT: argT, results: results, spread: spread,
		})
	} else {
		for _, a := range args {
			g.blurIn(a)
		}
		funSig, _ := pkg.TypesInfo.TypeOf(call.Fun).Underlying().(*types.Signature)
		g.blurResults(results, funSig)
	}
	if len(results) > 0 {
		return results[0]
	}
	return -1
}

func (g *gen) resultNodes(sig *types.Signature) []NodeID {
	if sig == nil {
		return nil
	}
	out := make([]NodeID, sig.Results().Len())
	for i := range out {
		if pointerLike(sig.Results().At(i).Type()) {
			out[i] = g.s.NewNode()
		} else {
			out[i] = -1
		}
	}
	return out
}

// bindStatic binds a statically resolved call: to the declared body
// when it is module code, to the extern blur otherwise.
func (g *gen) bindStatic(pkg *analysis.Package, call *ast.CallExpr, fn *types.Func, recvN NodeID, args []NodeID, argT []types.Type, results []NodeID, spread bool) {
	if g.decls[fn] == nil {
		for _, a := range args {
			g.blurIn(a)
		}
		if recvN >= 0 {
			g.blurIn(recvN)
		}
		g.blurResults(results, fn.Signature())
		return
	}
	sig := fn.Signature()
	if recvN >= 0 && sig.Recv() != nil {
		g.assign(g.varNode(sig.Recv()), recvN, sig.Recv().Type())
	}
	g.bindArgs(sig, g.paramNodes(sig), args, argT, spread)
	rets := g.retNodes(fn)
	for i, res := range results {
		if res >= 0 && i < len(rets) && rets[i] >= 0 {
			g.s.AddCopy(res, rets[i])
		}
	}
}

// conversionNode handles T(x).
func (g *gen) conversionNode(pkg *analysis.Package, call *ast.CallExpr) NodeID {
	info := pkg.TypesInfo
	if len(call.Args) != 1 {
		return -1
	}
	dstT := info.TypeOf(call)
	srcT := info.TypeOf(call.Args[0])
	src := g.nodeOf(pkg, call.Args[0])
	if dstT == nil || !pointerLike(dstT) {
		return -1
	}
	if src >= 0 {
		return src // reference-preserving conversion
	}
	if srcT != nil {
		if b, ok := srcT.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			// []byte(s) / []rune(s): fresh allocation.
			obj := g.newObject(KAlloc, call, pkg, dstT)
			n := g.s.NewNode()
			g.s.AddAddr(n, obj)
			return n
		}
	}
	return -1
}

// builtinNode handles the builtins with points-to effects.
func (g *gen) builtinNode(pkg *analysis.Package, call *ast.CallExpr, name string) NodeID {
	info := pkg.TypesInfo
	switch name {
	case "make":
		t := info.TypeOf(call)
		obj := g.newObject(KAlloc, call, pkg, t)
		switch u := t.Underlying().(type) {
		case *types.Slice:
			g.seedElemCell(obj, u.Elem())
		case *types.Map:
			g.seedElemCell(obj, u.Elem())
		case *types.Chan:
			g.seedElemCell(obj, u.Elem())
		}
		n := g.s.NewNode()
		g.s.AddAddr(n, obj)
		return n
	case "new":
		t := info.TypeOf(call) // *T
		pt, _ := t.Underlying().(*types.Pointer)
		if pt == nil {
			return -1
		}
		et := pt.Elem()
		if !pointerLike(et) && !isAggregate(et) {
			// new(int) etc: still a cell so *p writes have a target.
			obj := g.newObject(KAlloc, call, pkg, et)
			n := g.s.NewNode()
			g.s.AddAddr(n, obj)
			return n
		}
		obj := g.newObject(KAlloc, call, pkg, et)
		if isAggregate(et) {
			g.seedAggregate(obj, et, 0, nil)
		}
		n := g.s.NewNode()
		g.s.AddAddr(n, obj)
		return n
	case "append":
		if len(call.Args) == 0 {
			return -1
		}
		base := g.nodeOf(pkg, call.Args[0])
		t := info.TypeOf(call.Args[0])
		res := g.s.NewNode()
		if base >= 0 {
			g.s.AddCopy(res, base)
		}
		obj := g.newObject(KAlloc, call, pkg, t) // the possible realloc
		if t != nil {
			if st, ok := t.Underlying().(*types.Slice); ok {
				g.seedElemCell(obj, st.Elem())
			}
		}
		g.s.AddAddr(res, obj)
		if call.Ellipsis.IsValid() && len(call.Args) == 2 {
			if src := g.nodeOf(pkg, call.Args[1]); src >= 0 {
				tmp := g.s.NewNode()
				g.s.AddLoad(tmp, src, ElemField)
				g.s.AddStore(res, ElemField, tmp)
			}
			return res
		}
		for _, a := range call.Args[1:] {
			if src := g.nodeOf(pkg, a); src >= 0 {
				g.s.AddStore(res, ElemField, src)
			}
		}
		return res
	case "copy":
		if len(call.Args) == 2 {
			dst := g.nodeOf(pkg, call.Args[0])
			src := g.nodeOf(pkg, call.Args[1])
			if dst >= 0 && src >= 0 {
				tmp := g.s.NewNode()
				g.s.AddLoad(tmp, src, ElemField)
				g.s.AddStore(dst, ElemField, tmp)
			}
		}
		return -1
	case "recover":
		n := g.s.NewNode()
		g.blurOut(n, nil)
		return n
	}
	return -1
}
