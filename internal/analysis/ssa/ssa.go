package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"github.com/graphbig/graphbig-go/internal/analysis"
)

// Info caches per-function SSA over one Module. Obtain it with Of; the
// cache is keyed by Module identity.
type Info struct {
	m   *analysis.Module
	mu  sync.Mutex
	fns map[ast.Node]*Func
}

var cache sync.Map // *analysis.Module -> *Info

// Of returns the module's SSA cache, creating it on first use.
func Of(m *analysis.Module) *Info {
	if v, ok := cache.Load(m); ok {
		return v.(*Info)
	}
	v, _ := cache.LoadOrStore(m, &Info{m: m, fns: map[ast.Node]*Func{}})
	return v.(*Info)
}

// FuncOf returns the pruned-SSA form of fn — an *ast.FuncDecl or
// *ast.FuncLit declared in pkg — building it on first use.
func (in *Info) FuncOf(pkg *analysis.Package, fn ast.Node) *Func {
	cfg := in.m.CFGOfFunc(fn)
	in.mu.Lock()
	defer in.mu.Unlock()
	f, ok := in.fns[fn]
	if !ok {
		f = buildFunc(pkg, fn, cfg)
		in.fns[fn] = f
	}
	return f
}

// DefKind classifies how a Def assigns its variable.
type DefKind uint8

const (
	// DefUndef is the pseudo-definition used when a use or phi argument
	// has no reaching definition on some path (possible only through
	// gotos and degenerate flow; Go scoping otherwise guarantees the
	// declaration dominates every use).
	DefUndef DefKind = iota
	// DefParam is a parameter or receiver, defined at function entry.
	DefParam
	// DefZero is a declaration without initializer (zero value), named
	// results included.
	DefZero
	// DefAssign is `x = rhs` / `x := rhs` with a one-to-one value: Rhs
	// holds the defining expression.
	DefAssign
	// DefOpaque is a defining occurrence with no single defining
	// expression: multi-value assignment, op-assignment (+=), ++/--.
	DefOpaque
	// DefRange defines the key or value variable of a range statement;
	// Stmt holds the *ast.RangeStmt.
	DefRange
	// DefPhi merges versions at a join block; Args aligns with
	// Block.Preds.
	DefPhi
)

// Def is one SSA definition of a variable version.
type Def struct {
	ID    int
	Var   *types.Var
	Kind  DefKind
	Block *analysis.Block
	// Ident is the defining occurrence in source; nil for DefParam,
	// DefUndef, and DefPhi (params point at their declaring Field name
	// when it exists).
	Ident *ast.Ident
	// Rhs is the defining expression for DefAssign (nil otherwise).
	Rhs ast.Expr
	// Stmt is the statement or declaration that created the definition
	// (AssignStmt, ValueSpec, RangeStmt, IncDecStmt, Field); nil for
	// phis and undef.
	Stmt ast.Node
	// Args are the incoming definitions of a DefPhi, aligned with
	// Block.Preds; nil entries correspond to unreachable predecessors.
	Args []*Def
	// Uses lists every identifier occurrence resolved to this
	// definition, in source order within each block.
	Uses []*ast.Ident
}

// Func is the pruned-SSA form of one function body.
type Func struct {
	Node ast.Node // *ast.FuncDecl or *ast.FuncLit
	Pkg  *analysis.Package
	CFG  *analysis.CFG
	Dom  *DomTree

	// Vars are the versioned local variables in declaration order.
	Vars []*types.Var
	// Unversioned are locals excluded from renaming because their
	// version cannot be tracked soundly: address-taken variables (a
	// pointer may rewrite them or their elements at any time) and
	// variables reassigned inside a nested function literal. Uses of
	// these variables have no UseDef entry.
	Unversioned map[*types.Var]bool
	// Defs lists every definition in renaming order.
	Defs []*Def
	// UseDef maps each use identifier of a versioned variable to its
	// reaching definition.
	UseDef map[*ast.Ident]*Def
	// Phis maps join blocks to their phi definitions, in Vars order.
	Phis map[*analysis.Block][]*Def

	// dependents[d] lists the definitions whose value derives from d — a
	// phi with d as argument, or a DefAssign whose Rhs uses d — the edge
	// set sparse fact propagation follows.
	dependents map[*Def][]*Def
	undefs     map[*types.Var]*Def
}

// Dependents returns the definitions that must be re-evaluated when d's
// fact changes: phis taking d as an argument and assignments whose
// defining expression uses d.
func (f *Func) Dependents(d *Def) []*Def { return f.dependents[d] }

// event is one ordered use/def occurrence inside a block.
type event struct {
	id   *ast.Ident
	v    *types.Var
	def  bool
	kind DefKind
	rhs  ast.Expr
	stmt ast.Node
}

type ssaBuilder struct {
	fn     *Func
	info   *types.Info
	vars   map[*types.Var]bool
	events map[*analysis.Block][]event
	stacks map[*types.Var][]*Def
}

func buildFunc(pkg *analysis.Package, fn ast.Node, cfg *analysis.CFG) *Func {
	f := &Func{
		Node:        fn,
		Pkg:         pkg,
		CFG:         cfg,
		Dom:         BuildDom(cfg),
		Unversioned: map[*types.Var]bool{},
		UseDef:      map[*ast.Ident]*Def{},
		Phis:        map[*analysis.Block][]*Def{},
		dependents:  map[*Def][]*Def{},
		undefs:      map[*types.Var]*Def{},
	}
	b := &ssaBuilder{
		fn:     f,
		info:   pkg.TypesInfo,
		vars:   map[*types.Var]bool{},
		events: map[*analysis.Block][]event{},
		stacks: map[*types.Var][]*Def{},
	}
	var body *ast.BlockStmt
	var ftype *ast.FuncType
	var recv *ast.FieldList
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body, ftype, recv = fn.Body, fn.Type, fn.Recv
	case *ast.FuncLit:
		body, ftype = fn.Body, fn.Type
	}
	b.collectVars(ftype, recv, body)
	if body != nil {
		b.markUnversioned(body)
	}
	// Drop unversioned variables from the tracked set.
	for v := range f.Unversioned {
		delete(b.vars, v)
	}
	var vars []*types.Var
	for v := range b.vars {
		vars = append(vars, v)
	}
	sortVars(vars)
	f.Vars = vars

	// Entry definitions, then per-block event streams.
	b.entryDefs(ftype, recv)
	for _, blk := range f.Dom.RPO() {
		if blk.Kind == "defer.run" {
			// The deferred call's arguments were already walked at the
			// registration point (the DeferStmt stays in its block);
			// walking the defer.run copy would duplicate the same ident
			// pointers in two blocks.
			continue
		}
		var evs []event
		for _, n := range blk.Nodes {
			b.nodeEvents(n, &evs)
		}
		b.events[blk] = evs
	}

	b.placePhis()
	b.rename(f.CFG.Entry)
	b.linkDependents()
	return f
}

// collectVars gathers the candidate variables: parameters, receiver,
// named results, and every local declared in the body outside nested
// function literals.
func (b *ssaBuilder) collectVars(ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := b.info.Defs[name].(*types.Var); ok {
					b.vars[v] = true
				}
			}
		}
	}
	addField(recv)
	if ftype != nil {
		addField(ftype.Params)
		addField(ftype.Results)
	}
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // locals of a nested literal belong to its own Func
		case *ast.Ident:
			if v, ok := b.info.Defs[n].(*types.Var); ok && n.Name != "_" {
				b.vars[v] = true
			}
		}
		return true
	})
}

// markUnversioned finds variables whose SSA version cannot be tracked:
// any candidate whose address is taken (directly or through an element
// or field), and any candidate whole-assigned inside a nested literal.
func (b *ssaBuilder) markUnversioned(body *ast.BlockStmt) {
	mark := func(e ast.Expr) {
		if v := b.rootVar(e); v != nil && b.vars[v] {
			b.fn.Unversioned[v] = true
		}
	}
	inLit := func(litBody ast.Node) {
		ast.Inspect(litBody, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if v, ok := b.info.Uses[id].(*types.Var); ok && b.vars[v] {
							b.fn.Unversioned[v] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if id, ok := n.X.(*ast.Ident); ok {
					if v, ok := b.info.Uses[id].(*types.Var); ok && b.vars[v] {
						b.fn.Unversioned[v] = true
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok {
							if v, ok := b.info.Uses[id].(*types.Var); ok && b.vars[v] {
								b.fn.Unversioned[v] = true
							}
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if v := b.rootVar(n.X); v != nil && b.vars[v] {
						b.fn.Unversioned[v] = true
					}
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.FuncLit:
			inLit(n.Body)
			return false
		}
		return true
	})
}

// rootVar peels index, selector, star, and paren wrappers to the base
// identifier's variable, if any.
func (b *ssaBuilder) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := b.info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := b.info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func (b *ssaBuilder) entryDefs(ftype *ast.FuncType, recv *ast.FieldList) {
	add := func(fl *ast.FieldList, kind DefKind) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				v, ok := b.info.Defs[name].(*types.Var)
				if !ok || !b.vars[v] {
					continue
				}
				d := b.newDef(v, kind, b.fn.CFG.Entry, name, nil, field)
				b.push(v, d)
			}
		}
	}
	add(recv, DefParam)
	if ftype != nil {
		add(ftype.Params, DefParam)
		add(ftype.Results, DefZero)
	}
}

func (b *ssaBuilder) newDef(v *types.Var, kind DefKind, blk *analysis.Block, id *ast.Ident, rhs ast.Expr, stmt ast.Node) *Def {
	d := &Def{ID: len(b.fn.Defs), Var: v, Kind: kind, Block: blk, Ident: id, Rhs: rhs, Stmt: stmt}
	b.fn.Defs = append(b.fn.Defs, d)
	return d
}

func (b *ssaBuilder) push(v *types.Var, d *Def) { b.stacks[v] = append(b.stacks[v], d) }

func (b *ssaBuilder) top(v *types.Var) *Def {
	if s := b.stacks[v]; len(s) > 0 {
		return s[len(s)-1]
	}
	u, ok := b.fn.undefs[v]
	if !ok {
		u = b.newDef(v, DefUndef, b.fn.CFG.Entry, nil, nil, nil)
		b.fn.undefs[v] = u
	}
	return u
}

// nodeEvents appends the ordered use/def events of one block node.
func (b *ssaBuilder) nodeEvents(n ast.Node, out *[]event) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			b.exprEvents(r, out)
		}
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			oneToOne := len(n.Lhs) == len(n.Rhs)
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if v := b.defObj(id, ok); v != nil {
					kind, rhs := DefOpaque, ast.Expr(nil)
					if oneToOne {
						kind, rhs = DefAssign, n.Rhs[i]
					}
					*out = append(*out, event{id: id, v: v, def: true, kind: kind, rhs: rhs, stmt: n})
				} else {
					b.exprEvents(lhs, out)
				}
			}
		} else {
			// Op-assignment: the left side is read, then redefined.
			if id, ok := n.Lhs[0].(*ast.Ident); ok {
				if v := b.defObj(id, true); v != nil {
					*out = append(*out, event{id: id, v: v})
					*out = append(*out, event{id: id, v: v, def: true, kind: DefOpaque, stmt: n})
					return
				}
			}
			b.exprEvents(n.Lhs[0], out)
		}
	case *ast.IncDecStmt:
		if id, ok := n.X.(*ast.Ident); ok {
			if v := b.defObj(id, true); v != nil {
				*out = append(*out, event{id: id, v: v})
				*out = append(*out, event{id: id, v: v, def: true, kind: DefOpaque, stmt: n})
				return
			}
		}
		b.exprEvents(n.X, out)
	case *ast.RangeStmt:
		// The head block carries the whole RangeStmt; its operand was
		// walked in the pre-head block and the body lives in its own
		// blocks, so only the key/value definitions happen here.
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			id, ok := e.(*ast.Ident)
			if v := b.defObj(id, ok); v != nil {
				*out = append(*out, event{id: id, v: v, def: true, kind: DefRange, stmt: n})
			} else if !ok {
				b.exprEvents(e, out)
			}
		}
	case *ast.SelectStmt:
		// The head carries the whole statement for position lookups; the
		// comm clauses are walked in their clause blocks.
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, val := range vs.Values {
				b.exprEvents(val, out)
			}
			oneToOne := len(vs.Values) == len(vs.Names)
			for i, name := range vs.Names {
				v := b.defObj(name, true)
				if v == nil {
					continue
				}
				switch {
				case len(vs.Values) == 0:
					*out = append(*out, event{id: name, v: v, def: true, kind: DefZero, stmt: vs})
				case oneToOne:
					*out = append(*out, event{id: name, v: v, def: true, kind: DefAssign, rhs: vs.Values[i], stmt: vs})
				default:
					*out = append(*out, event{id: name, v: v, def: true, kind: DefOpaque, stmt: vs})
				}
			}
		}
	case *ast.DeferStmt:
		b.exprEvents(n.Call, out)
	case *ast.GoStmt:
		b.exprEvents(n.Call, out)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			b.exprEvents(r, out)
		}
	case *ast.SendStmt:
		b.exprEvents(n.Chan, out)
		b.exprEvents(n.Value, out)
	case *ast.ExprStmt:
		b.exprEvents(n.X, out)
	case *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.LabeledStmt:
		// Labels never carry their statement whole; nothing to do.
	default:
		// Condition sub-expressions, case expressions, range operands,
		// and switch tags land here; walk them as uses.
		b.exprEvents(n, out)
	}
}

// defObj resolves a defining identifier occurrence to its tracked
// variable, through either Defs (:=, var) or Uses (plain assignment).
func (b *ssaBuilder) defObj(id *ast.Ident, ok bool) *types.Var {
	if !ok || id == nil || id.Name == "_" {
		return nil
	}
	if v, okd := b.info.Defs[id].(*types.Var); okd && b.vars[v] {
		return v
	}
	if v, oku := b.info.Uses[id].(*types.Var); oku && b.vars[v] {
		return v
	}
	return nil
}

// exprEvents emits use events for every tracked identifier read in e.
// Nested function literals contribute their captured reads as uses at
// the literal's position (writes inside literals made those variables
// unversioned already).
func (b *ssaBuilder) exprEvents(e ast.Node, out *[]event) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b.litUses(n, out)
			return false
		case *ast.Ident:
			if v, ok := b.info.Uses[n].(*types.Var); ok && b.vars[v] {
				*out = append(*out, event{id: n, v: v})
			}
		}
		return true
	})
}

// litUses records each outer variable read inside a literal as a use
// occurring where the literal is written: the reaching definition at
// the literal is the version the closure captures (for versioned
// variables this is exact — any variable the closure reassigns was
// removed from renaming).
func (b *ssaBuilder) litUses(lit *ast.FuncLit, out *[]event) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := b.info.Uses[id].(*types.Var); ok && b.vars[v] {
				*out = append(*out, event{id: id, v: v})
			}
		}
		return true
	})
}

// placePhis runs liveness-pruned phi insertion: a phi for v lands in
// join block j of the iterated dominance frontier of v's definition
// blocks only if v is live into j.
func (b *ssaBuilder) placePhis() {
	f := b.fn
	varIdx := map[*types.Var]int{}
	for i, v := range f.Vars {
		varIdx[v] = i
	}
	nv := len(f.Vars)

	// Per-block gen (upward-exposed use) and kill (defined) bit sets.
	gen := map[*analysis.Block][]bool{}
	kill := map[*analysis.Block][]bool{}
	defBlocks := make([][]*analysis.Block, nv)
	for _, blk := range f.Dom.RPO() {
		g := make([]bool, nv)
		k := make([]bool, nv)
		for _, ev := range b.events[blk] {
			i := varIdx[ev.v]
			if ev.def {
				k[i] = true
			} else if !k[i] {
				g[i] = true
			}
		}
		gen[blk], kill[blk] = g, k
		for i := range k {
			if k[i] {
				defBlocks[i] = append(defBlocks[i], blk)
			}
		}
	}
	// Entry defs (params, receiver, named results) count as entry-block
	// definitions for phi placement.
	entry := f.CFG.Entry
	entryKill := kill[entry]
	for _, d := range f.Defs {
		if d.Block == entry && (d.Kind == DefParam || d.Kind == DefZero) {
			if i, ok := varIdx[d.Var]; ok && !entryKill[i] {
				entryKill[i] = true
				defBlocks[i] = append(defBlocks[i], entry)
			}
		}
	}

	// Backward liveness to a fixed point.
	liveIn := map[*analysis.Block][]bool{}
	liveOut := map[*analysis.Block][]bool{}
	rpo := f.Dom.RPO()
	for _, blk := range rpo {
		liveIn[blk] = make([]bool, nv)
		liveOut[blk] = make([]bool, nv)
	}
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			blk := rpo[i]
			out := liveOut[blk]
			for _, s := range blk.Succs {
				for j, live := range liveIn[s] {
					if live && !out[j] {
						out[j] = true
						changed = true
					}
				}
			}
			in := liveIn[blk]
			for j := 0; j < nv; j++ {
				want := gen[blk][j] || (out[j] && !kill[blk][j])
				if want && !in[j] {
					in[j] = true
					changed = true
				}
			}
		}
	}

	// Iterated dominance frontier per variable, pruned by liveness.
	for i, v := range f.Vars {
		hasPhi := map[*analysis.Block]bool{}
		isDef := map[*analysis.Block]bool{}
		work := append([]*analysis.Block(nil), defBlocks[i]...)
		for _, blk := range work {
			isDef[blk] = true
		}
		for len(work) > 0 {
			blk := work[len(work)-1]
			work = work[:len(work)-1]
			for _, j := range f.Dom.Frontier(blk) {
				if hasPhi[j] || !liveIn[j][i] {
					continue
				}
				hasPhi[j] = true
				phi := b.newDef(v, DefPhi, j, nil, nil, nil)
				phi.Args = make([]*Def, len(j.Preds))
				f.Phis[j] = append(f.Phis[j], phi)
				if !isDef[j] {
					isDef[j] = true
					work = append(work, j)
				}
			}
		}
	}
}

// rename walks the dominator tree assigning reaching definitions.
func (b *ssaBuilder) rename(blk *analysis.Block) {
	f := b.fn
	var pushed []*types.Var
	for _, phi := range f.Phis[blk] {
		b.push(phi.Var, phi)
		pushed = append(pushed, phi.Var)
	}
	for _, ev := range b.events[blk] {
		if !ev.def {
			d := b.top(ev.v)
			f.UseDef[ev.id] = d
			d.Uses = append(d.Uses, ev.id)
			continue
		}
		d := b.newDef(ev.v, ev.kind, blk, ev.id, ev.rhs, ev.stmt)
		b.push(ev.v, d)
		pushed = append(pushed, ev.v)
	}
	for _, s := range blk.Succs {
		j := predIndex(s, blk)
		for _, phi := range f.Phis[s] {
			phi.Args[j] = b.top(phi.Var)
		}
	}
	for _, c := range f.Dom.Children(blk) {
		b.rename(c)
	}
	for i := len(pushed) - 1; i >= 0; i-- {
		v := pushed[i]
		b.stacks[v] = b.stacks[v][:len(b.stacks[v])-1]
	}
}

func predIndex(s, p *analysis.Block) int {
	for i, q := range s.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// linkDependents builds the sparse def→dependent edges fact propagation
// follows.
func (b *ssaBuilder) linkDependents() {
	f := b.fn
	add := func(from, to *Def) {
		for _, e := range f.dependents[from] {
			if e == to {
				return
			}
		}
		f.dependents[from] = append(f.dependents[from], to)
	}
	for _, d := range f.Defs {
		switch {
		case d.Kind == DefPhi:
			for _, a := range d.Args {
				if a != nil {
					add(a, d)
				}
			}
		case d.Rhs != nil:
			ast.Inspect(d.Rhs, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if src, ok := f.UseDef[id]; ok {
						add(src, d)
					}
				}
				return true
			})
		}
	}
}

func sortVars(vars []*types.Var) {
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && less(vars[j], vars[j-1]); j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
}

func less(a, b *types.Var) bool {
	if a.Pos() != b.Pos() {
		return a.Pos() < b.Pos()
	}
	return a.Name() < b.Name()
}
