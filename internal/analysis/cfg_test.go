package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildTestCFG parses src (a file body containing exactly one function
// declaration) and returns its CFG plus the fileset.
func buildTestCFG(t *testing.T, src string) (*CFG, *token.FileSet, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return BuildCFG(fd), fset, fd
		}
	}
	t.Fatal("no function in source")
	return nil, nil, nil
}

// kinds returns the reachable block kinds, entry-first.
func kinds(c *CFG) []string {
	var ks []string
	for _, b := range c.Reachable() {
		ks = append(ks, b.Kind)
	}
	return ks
}

func hasKind(c *CFG, kind string) *Block {
	for _, b := range c.Reachable() {
		if b.Kind == kind {
			return b
		}
	}
	return nil
}

// reaches reports whether to is reachable from from over Succs edges.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// TestCFGInfiniteForWithBreak: `for { ... break }` has no condition edge
// out of the loop head; exit is reachable only through the break.
func TestCFGInfiniteForWithBreak(t *testing.T) {
	c, _, _ := buildTestCFG(t, `
func f(n int) int {
	s := 0
	for {
		s++
		if s > n {
			break
		}
	}
	return s
}`)
	head := hasKind(c, "for.head")
	if head == nil {
		t.Fatalf("no for.head block in %v", kinds(c))
	}
	// A condition-less for's head must have exactly one successor (the
	// body): falling out of the loop without break is impossible.
	if len(head.Succs) != 1 {
		t.Fatalf("for.head of `for {}` has %d successors, want 1 (body only)", len(head.Succs))
	}
	done := hasKind(c, "for.done")
	if done == nil {
		t.Fatalf("no for.done block (break target) in %v", kinds(c))
	}
	if !reaches(c.Entry, c.Exit) {
		t.Fatal("exit unreachable: break edge missing")
	}
	// The break edge must come from inside the if.then, not from the head.
	for _, p := range done.Preds {
		if p == head {
			t.Fatal("for.done has the loop head as predecessor; `for {}` must not exit via the head")
		}
	}
}

// TestCFGLabeledContinue: `continue outer` from the inner loop must edge
// to the OUTER loop's continuation point, not the inner head.
func TestCFGLabeledContinue(t *testing.T) {
	c, fset, fd := buildTestCFG(t, `
func f(rows [][]int) int {
	s := 0
outer:
	for i := 0; i < len(rows); i++ {
		for _, v := range rows[i] {
			if v < 0 {
				continue outer
			}
			s += v
		}
	}
	return s
}`)
	// Find the continue statement's block.
	var contPos token.Pos
	ast.Inspect(fd, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.CONTINUE && br.Label != nil {
			contPos = br.Pos()
		}
		return true
	})
	if !contPos.IsValid() {
		t.Fatal("no labeled continue parsed")
	}
	blk := c.BlockOf(contPos)
	if blk == nil {
		t.Fatalf("no reachable block holds the continue at %s", fset.Position(contPos))
	}
	if len(blk.Succs) != 1 {
		t.Fatalf("continue block has %d successors, want 1", len(blk.Succs))
	}
	succ := blk.Succs[0]
	if succ.Kind != "for.post" {
		t.Fatalf("continue outer edges to %s, want the outer loop's for.post", succ)
	}
	// And the inner range head must not be that successor's kind.
	if inner := hasKind(c, "range.head"); inner == nil {
		t.Fatalf("inner range.head missing in %v", kinds(c))
	} else if succ == inner {
		t.Fatal("continue outer wrongly targets the inner loop head")
	}
}

// TestCFGSelectWithDefault: every comm clause and the default are
// successors of the select head; without a default the head has no edge
// straight to done.
func TestCFGSelectWithDefault(t *testing.T) {
	c, _, _ := buildTestCFG(t, `
func f(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case ch <- 1:
		return 1
	default:
		return 0
	}
}`)
	var head *Block
	for _, b := range c.Reachable() {
		for _, s := range b.Succs {
			if strings.HasPrefix(s.Kind, "select.") && s.Kind != "select.done" {
				head = b
			}
		}
	}
	if head == nil {
		t.Fatalf("no select head found in %v", kinds(c))
	}
	var clause, deflt int
	for _, s := range head.Succs {
		switch s.Kind {
		case "select.clause":
			clause++
		case "select.default":
			deflt++
		case "select.done":
			t.Fatal("select head edges straight to done; clauses must be the only paths")
		}
	}
	if clause != 2 || deflt != 1 {
		t.Fatalf("select head has %d clause and %d default successors, want 2 and 1", clause, deflt)
	}

	// Without a default, done must still be created but only clause bodies
	// reach it (here bodies return, so done is unreachable).
	c2, _, _ := buildTestCFG(t, `
func g(ch chan int) int {
	select {
	case v := <-ch:
		return v
	}
}`)
	if d := hasKind(c2, "select.default"); d != nil {
		t.Fatal("default clause block present without a default case")
	}
}

// TestCFGDeferBeforePanic: an explicit panic statement must route through
// the defer.run chain (reverse registration order) before Exit.
func TestCFGDeferBeforePanic(t *testing.T) {
	c, fset, fd := buildTestCFG(t, `
func f(mu interface{ Unlock() }, log func(string)) {
	defer mu.Unlock()
	defer log("second registered, first run")
	if badState() {
		panic("invariant broken")
	}
	work()
}`)
	if len(c.DeferRuns) != 2 {
		t.Fatalf("DeferRuns = %d blocks, want 2", len(c.DeferRuns))
	}
	// Reverse registration order: log(...) runs before mu.Unlock().
	first, second := c.DeferRuns[0], c.DeferRuns[1]
	if len(first.Nodes) != 1 || len(second.Nodes) != 1 {
		t.Fatalf("defer.run blocks carry %d/%d nodes, want 1/1", len(first.Nodes), len(second.Nodes))
	}
	firstCall := first.Nodes[0].(*ast.CallExpr)
	if sel, ok := firstCall.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Unlock" {
		// first registered defer is mu.Unlock; first RUN must be log.
		if id, ok := firstCall.Fun.(*ast.Ident); !ok || id.Name != "log" {
			t.Fatalf("first defer.run holds %T, want the log call (reverse registration order)", firstCall.Fun)
		}
	} else {
		t.Fatal("first defer.run holds mu.Unlock; defers must run in reverse registration order")
	}

	// The block containing the panic call must reach Exit only through the
	// defer chain.
	var panicPos token.Pos
	ast.Inspect(fd, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				panicPos = call.Pos()
			}
		}
		return true
	})
	blk := c.BlockOf(panicPos)
	if blk == nil {
		t.Fatalf("no reachable block holds the panic at %s", fset.Position(panicPos))
	}
	if len(blk.Succs) != 1 || blk.Succs[0] != first {
		t.Fatalf("panic block edges to %v, want the defer chain head %s", blk.Succs, first)
	}
	if second.Succs[0] != c.Exit {
		t.Fatalf("defer chain tail edges to %v, want Exit", second.Succs)
	}
}

// TestCFGShortCircuitCond: && splits into separate condition blocks so the
// right operand is evaluated on its own edge.
func TestCFGShortCircuitCond(t *testing.T) {
	c, _, _ := buildTestCFG(t, `
func f(a, b bool) int {
	if a && b {
		return 1
	}
	return 0
}`)
	and := hasKind(c, "cond.and")
	if and == nil {
		t.Fatalf("no cond.and block in %v", kinds(c))
	}
	// The entry block (holding `a`) must have the and-block (holding `b`)
	// as one successor and the else path as the other.
	if len(c.Entry.Succs) != 2 {
		t.Fatalf("entry has %d successors, want 2 (b-eval and false path)", len(c.Entry.Succs))
	}
	foundMid := false
	for _, s := range c.Entry.Succs {
		if s == and {
			foundMid = true
		}
	}
	if !foundMid {
		t.Fatal("left operand block does not edge into the right operand block")
	}
}

// TestCFGGotoBackward covers goto to an earlier label forming a loop.
func TestCFGGotoBackward(t *testing.T) {
	c, _, _ := buildTestCFG(t, `
func f(n int) int {
	i := 0
loop:
	i++
	if i < n {
		goto loop
	}
	return i
}`)
	lb := hasKind(c, "label.loop")
	if lb == nil {
		t.Fatalf("no label block in %v", kinds(c))
	}
	// The goto's block must edge back to the label block.
	back := false
	for _, p := range lb.Preds {
		if p.Kind == "if.then" || reaches(lb, p) {
			back = true
		}
	}
	if !back {
		t.Fatal("goto loop did not create a back edge")
	}
}

// BlockOf returns the reachable block holding the smallest node that
// spans pos, or nil. Smallest-span wins because loop-head blocks carry
// their whole statement (a RangeStmt's span covers its body) while the
// body's own statements live in narrower nodes of inner blocks.
func (c *CFG) BlockOf(pos token.Pos) *Block {
	var best *Block
	var bestSpan token.Pos = -1
	for _, b := range c.Reachable() {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos <= n.End() {
				span := n.End() - n.Pos()
				if bestSpan < 0 || span < bestSpan {
					best, bestSpan = b, span
				}
			}
		}
	}
	return best
}
