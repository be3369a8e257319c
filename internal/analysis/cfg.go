package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// This file implements per-function control-flow graph construction over
// the type-checked AST, the substrate of the dataflow solver (solver.go),
// the range analysis (rangeanal.go) and the ssa package. No graphbig-vet
// analyzer builds one: overflowconv, the last user, became syntactic.
// The shape follows golang.org/x/tools/go/cfg with two deliberate
// extensions:
//
//   - short-circuit conditions (&&, ||, !) are split into separate
//     condition blocks, so a fact established by evaluating the left
//     operand is visible on the edge into the right one;
//   - defer and panic are modeled: every function exit — normal return,
//     fall-off-the-end, or an explicit panic(...) statement — routes
//     through a chain of defer.run blocks holding the deferred call
//     expressions in reverse registration order before reaching Exit.
//     This is a static over-approximation (all defers run on every exit):
//     a deferred call takes effect only at exit, never mid-body.
//
// Function literals are NOT inlined into the enclosing CFG: a closure's
// statements execute when the closure is called, not where it is written,
// so builders skip FuncLit bodies and analyzers construct a separate CFG
// per literal when they need one.

// Block is one straight-line sequence of AST nodes with no internal
// control transfer. Nodes holds statements and, for condition blocks, the
// condition (sub)expression evaluated there.
type Block struct {
	Index int
	// Kind names the construct that created the block ("entry", "exit",
	// "for.head", "if.then", "select.clause", "defer.run", ...), for
	// debugging and tests.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Cond is set on blocks that end by evaluating a branch condition
	// with two distinct successors: Succs[0] is the true edge, Succs[1]
	// the false edge. Nil everywhere else (including range heads, whose
	// Succs[0]/Succs[1] are the body/done edges of the implicit
	// "more elements?" test). Solver lattices use it for branch
	// refinement via Lattice.EdgeTransfer.
	Cond ast.Expr
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// CFG is the control-flow graph of one function body. Entry has no
// predecessors; Exit has no successors and is reached by every return,
// fall-off-the-end, and panic path (through DeferRuns when the function
// defers anything).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// DeferRuns are the defer.run blocks on the exit path, in execution
	// (reverse registration) order; empty when the function has no defers.
	DeferRuns []*Block
}

// BuildCFG constructs the CFG of fn, which must be an *ast.FuncDecl or
// *ast.FuncLit with a body. It never returns nil; a bodyless declaration
// yields an entry→exit graph.
func BuildCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	default:
		panic(fmt.Sprintf("analysis: BuildCFG(%T)", fn))
	}
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*Block{},
		gotos:  map[string][]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmts(body.List)
	}
	b.jump(b.cfg.Exit) // fall off the end
	b.resolveGotos()
	b.insertDeferChain()
	b.computePreds()
	return b.cfg
}

// Reachable returns the blocks reachable from Entry, in a deterministic
// depth-first order.
func (c *CFG) Reachable() []*Block {
	seen := make([]bool, len(c.Blocks))
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		order = append(order, b)
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(c.Entry)
	return order
}

// PostOrder returns the reachable blocks in depth-first postorder:
// every block appears after all successors first reached through it.
// Reversing the slice yields the reverse postorder that iterative
// dataflow and the SSA dominator construction traverse.
func (c *CFG) PostOrder() []*Block {
	seen := make([]bool, len(c.Blocks))
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			visit(s)
		}
		order = append(order, b)
	}
	visit(c.Entry)
	return order
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil after an unconditional transfer (dead code follows)

	// Innermost-first stack of branch targets. Loops push break+continue;
	// switch/select push break only (continueTo nil).
	targets []branchTargets
	// pendingLabel is the label wrapping the next loop/switch/select
	// statement, consumed so `break L` / `continue L` resolve to it.
	pendingLabel string
	labels       map[string]*Block   // label -> block starting the labeled stmt
	gotos        map[string][]*Block // unresolved forward gotos
	defers       []*ast.DeferStmt
	// fallthroughTo is the next case-clause block while building a switch.
	fallthroughTo *Block
}

type branchTargets struct {
	label      string
	breakTo    *Block
	continueTo *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block (dropped in dead code).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// jump adds an edge from the current block to target and ends the block.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		addEdge(b.cur, target)
	}
	b.cur = nil
}

// startIn makes target the current block.
func (b *cfgBuilder) startIn(target *Block) { b.cur = target }

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	if b.cur == nil {
		// Statically dead code (after return/panic/branch). Labels inside
		// it can still be goto targets, so give it a fresh unreachable
		// block rather than dropping it.
		b.cur = b.newBlock("unreachable")
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.jump(lb)
		b.startIn(lb)
		b.labels[s.Label.Name] = lb
		for _, src := range b.gotos[s.Label.Name] {
			addEdge(src, lb)
		}
		delete(b.gotos, s.Label.Name)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		elseTo := done
		var els *Block
		if s.Else != nil {
			els = b.newBlock("if.else")
			elseTo = els
		}
		b.cond(s.Cond, then, elseTo)
		b.startIn(then)
		b.stmt(s.Body)
		b.jump(done)
		if s.Else != nil {
			b.startIn(els)
			b.stmt(s.Else)
			b.jump(done)
		}
		b.startIn(done)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, "switch")
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, "typeswitch")
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		// The registration point stays in the block (so position-based
		// lookups find it); the call itself runs in the defer chain.
		b.add(s)
		b.defers = append(b.defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.cfg.Exit)
		}
	default:
		// Assignments, declarations, go, send, incdec, empty: straight-line.
		b.add(s)
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	b.jump(head)
	b.startIn(head)
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.jump(body) // for {}: the only way out is break/return/panic
	}
	continueTo := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		continueTo = post
	}
	b.targets = append(b.targets, branchTargets{label, done, continueTo})
	b.startIn(body)
	b.stmt(s.Body)
	b.jump(continueTo)
	b.targets = b.targets[:len(b.targets)-1]
	if post != nil {
		b.startIn(post)
		b.add(s.Post)
		b.jump(head)
	}
	b.startIn(done)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	// The range operand is evaluated once, on entry; the head re-tests
	// "more elements?" each iteration and carries the RangeStmt node for
	// transfer functions that model the key/value assignment.
	b.add(s.X)
	b.jump(head)
	b.startIn(head)
	b.add(s)
	addEdge(head, body)
	addEdge(head, done)
	b.cur = nil
	b.targets = append(b.targets, branchTargets{label, done, head})
	b.startIn(body)
	b.stmt(s.Body)
	b.jump(head)
	b.targets = b.targets[:len(b.targets)-1]
	b.startIn(done)
}

// switchStmt builds expression and type switches; tagOrAssign is the tag
// expression (may be nil) or the type-switch assign statement.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tagOrAssign ast.Node, body *ast.BlockStmt, kind string) {
	label := b.pendingLabel
	b.pendingLabel = ""
	if init != nil {
		b.add(init)
	}
	if tagOrAssign != nil {
		b.add(tagOrAssign)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock(kind + ".head")
		b.startIn(head)
	}
	done := b.newBlock(kind + ".done")
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
		if c.List == nil {
			hasDefault = true
		}
		addEdge(head, blocks[i])
	}
	if !hasDefault {
		addEdge(head, done)
	}
	b.targets = append(b.targets, branchTargets{label, done, nil})
	prevFallthrough := b.fallthroughTo
	for i, c := range clauses {
		b.startIn(blocks[i])
		for _, e := range c.List {
			b.add(e)
		}
		b.fallthroughTo = nil
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.stmts(c.Body)
		b.jump(done)
	}
	b.fallthroughTo = prevFallthrough
	b.targets = b.targets[:len(b.targets)-1]
	b.startIn(done)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.cur
	if head == nil {
		head = b.newBlock("select.head")
		b.startIn(head)
	}
	head.Nodes = append(head.Nodes, s)
	done := b.newBlock("select.done")
	b.targets = append(b.targets, branchTargets{label, done, nil})
	for _, cl := range s.Body.List {
		c := cl.(*ast.CommClause)
		kind := "select.clause"
		if c.Comm == nil {
			kind = "select.default"
		}
		blk := b.newBlock(kind)
		addEdge(head, blk)
		b.startIn(blk)
		if c.Comm != nil {
			b.add(c.Comm)
		}
		b.stmts(c.Body)
		b.jump(done)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = nil
	// A select with no default blocks until a clause fires: done is
	// reachable only through the clause bodies, which is already encoded.
	b.startIn(done)
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if s.Label == nil || t.label == s.Label.Name {
				b.jump(t.breakTo)
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.continueTo != nil && (s.Label == nil || t.label == s.Label.Name) {
				b.jump(t.continueTo)
				return
			}
		}
	case token.GOTO:
		if lb, ok := b.labels[s.Label.Name]; ok {
			b.jump(lb)
		} else if b.cur != nil {
			b.gotos[s.Label.Name] = append(b.gotos[s.Label.Name], b.cur)
			b.cur = nil
		}
		return
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.jump(b.fallthroughTo)
			return
		}
	}
	b.cur = nil // malformed branch in dead code; sever the block
}

func (b *cfgBuilder) resolveGotos() {
	// Gotos to labels that never appeared (a type error upstream) stay
	// severed: their blocks simply have no successor.
	clear(b.gotos)
}

// cond builds the evaluation of a condition with short-circuit splitting:
// facts established by the left operand of && / || hold on the edge into
// the right operand's block.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock("cond.and")
			b.cond(x.X, mid, f)
			b.startIn(mid)
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock("cond.or")
			b.cond(x.X, t, mid)
			b.startIn(mid)
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.add(e)
	if b.cur != nil {
		cur := b.cur
		addEdge(cur, t)
		addEdge(cur, f)
		// Only a two-way branch is a refinable condition; when t == f the
		// dedupe collapses the edges and no truth value is learnable.
		if len(cur.Succs) == 2 && cur.Succs[0] == t && cur.Succs[1] == f {
			cur.Cond = e
		}
	}
	b.cur = nil
}

// insertDeferChain rewires every edge into Exit through defer.run blocks
// holding the deferred calls in reverse registration order.
func (b *cfgBuilder) insertDeferChain() {
	if len(b.defers) == 0 {
		return
	}
	exit := b.cfg.Exit
	var chain []*Block
	for i := len(b.defers) - 1; i >= 0; i-- {
		blk := b.newBlock("defer.run")
		blk.Nodes = append(blk.Nodes, b.defers[i].Call)
		chain = append(chain, blk)
	}
	for i := 0; i+1 < len(chain); i++ {
		addEdge(chain[i], chain[i+1])
	}
	addEdge(chain[len(chain)-1], exit)
	head := chain[0]
	for _, blk := range b.cfg.Blocks {
		if containsBlock(chain, blk) {
			continue
		}
		for i, s := range blk.Succs {
			if s == exit {
				blk.Succs[i] = head
			}
		}
	}
	b.cfg.DeferRuns = chain
}

func containsBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

func (b *cfgBuilder) computePreds() {
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
}

// isPanicCall reports a direct call to the panic builtin. (Resolved
// syntactically: shadowing `panic` is not a pattern this codebase allows.)
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
