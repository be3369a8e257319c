package analysis

import (
	"go/ast"
	"go/token"
	"testing"
)

// stringSet facts for the solver tests.
type stringSet map[string]bool

func setEqual(a, b stringSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func intersect(a, b stringSet) stringSet {
	if a == nil {
		return b // nil is Top for intersection lattices
	}
	if b == nil {
		return a
	}
	out := stringSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func union(a, b stringSet) stringSet {
	out := stringSet{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// assignedIn collects identifiers assigned (:=, =) by the block's nodes.
func assignedIn(b *Block) []string {
	var names []string
	for _, n := range b.Nodes {
		if asg, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range asg.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					names = append(names, id.Name)
				}
			}
		}
	}
	return names
}

// TestSolveForwardDefiniteAssignment: intersection meet over a diamond —
// a variable assigned on both branches is definitely assigned at the
// join; one assigned on a single branch is not. A loop-body assignment
// must not leak to the loop exit (zero-iteration path).
func TestSolveForwardDefiniteAssignment(t *testing.T) {
	c, _, _ := buildTestCFG(t, `
func f(cond bool, n int) {
	var both, one, looped, pre any
	_ = pre
	if cond {
		both = 1
		one = 1
	} else {
		both = 2
	}
	sink(both, one)
	pre = 0
	for i := 0; i < n; i++ {
		looped = i
	}
	sink(looped)
}`)
	// nil stringSet is the Top of the intersection lattice (the set of all
	// names); the boundary starts empty (nothing assigned at entry).
	lat := Lattice[stringSet]{
		Boundary: stringSet{},
		Top:      func() stringSet { return nil },
		Meet:     intersect,
		Equal: func(a, b stringSet) bool {
			if a == nil || b == nil {
				return a == nil && b == nil
			}
			return setEqual(a, b)
		},
		Transfer: func(b *Block, in stringSet) stringSet {
			names := assignedIn(b)
			if len(names) == 0 {
				return in
			}
			out := union(in, nil)
			for _, n := range names {
				out[n] = true
			}
			return out
		},
	}
	res := Solve(c, Forward, lat)
	atExit := res.In[c.Exit]
	if atExit == nil {
		t.Fatal("exit fact is Top; solver never propagated")
	}
	if !atExit["both"] {
		t.Error("`both` assigned on both branches but not definitely assigned at exit")
	}
	if atExit["one"] {
		t.Error("`one` assigned on a single branch reported definitely assigned")
	}
	if !atExit["pre"] {
		t.Error("straight-line assignment to `pre` lost")
	}
	// The loop exit joins the zero-iteration path, so `looped` must not be
	// definite there.
	if atExit["looped"] {
		t.Error("loop-body assignment to `looped` leaked past the zero-iteration path")
	}
}

// TestSolveBackwardLiveness: union meet backwards — a parameter read
// after the loop is live at entry; a variable only ever written is not.
func TestSolveBackwardLiveness(t *testing.T) {
	c, _, _ := buildTestCFG(t, `
func f(n int) int {
	dead := 0
	dead = 1
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`)
	uses := func(b *Block) (used, defined stringSet) {
		used, defined = stringSet{}, stringSet{}
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
							defined[id.Name] = true
						}
					}
				}
				for _, rhs := range n.Rhs {
					ast.Inspect(rhs, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							used[id.Name] = true
						}
						return true
					})
				}
			default:
				ast.Inspect(n, func(m ast.Node) bool {
					if _, ok := m.(*ast.AssignStmt); ok {
						return false
					}
					if id, ok := m.(*ast.Ident); ok {
						used[id.Name] = true
					}
					return true
				})
			}
		}
		return used, defined
	}
	lat := Lattice[stringSet]{
		Boundary: stringSet{},
		Top:      func() stringSet { return stringSet{} },
		Meet:     union,
		Equal:    setEqual,
		Transfer: func(b *Block, in stringSet) stringSet {
			used, defined := uses(b)
			out := union(in, nil)
			for k := range defined {
				delete(out, k)
			}
			for k := range used {
				out[k] = true
			}
			return out
		},
	}
	res := Solve(c, Backward, lat)
	atEntry := res.Out[c.Entry]
	if !atEntry["n"] {
		t.Error("parameter n read in the loop condition is not live at entry")
	}
	if atEntry["dead"] {
		t.Error("write-only variable `dead` reported live at entry")
	}
	// s is defined before the loop and used after; at the loop head it
	// must be live (read by the back edge and the return).
	head := hasKind(c, "for.head")
	if head == nil {
		t.Fatal("no loop head")
	}
	if !res.In[head]["s"] {
		t.Error("`s` not live at the loop head despite the return after the loop")
	}
}

// callNamesIn lists the identifiers called by the block's nodes — the
// token tests drive transfer functions off bare call names.
func callNamesIn(b *Block) []string {
	var names []string
	for _, n := range b.Nodes {
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
			return true
		})
	}
	return names
}

// mayJoin is union with nil as Top.
func mayJoin(a, b stringSet) stringSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return union(a, b)
}

// tokenLattice is a set lattice with nil as Top whose transfer applies
// step to a copy of the input once per call in the block.
func tokenLattice(boundary stringSet, meet func(a, b stringSet) stringSet, step func(in stringSet, call string) stringSet) Lattice[stringSet] {
	return Lattice[stringSet]{
		Boundary: boundary,
		Top:      func() stringSet { return nil },
		Meet:     meet,
		Equal:    func(a, b stringSet) bool { return (a == nil) == (b == nil) && setEqual(a, b) },
		Transfer: func(b *Block, in stringSet) stringSet {
			if in == nil {
				return nil
			}
			out := union(in, nil)
			for _, name := range callNamesIn(b) {
				out = step(out, name)
			}
			return out
		},
	}
}

// TestSolvePhaseTokens: a forward may-analysis (union meet) on the
// solver. A "put" raises a token, a "barrier" lowers every token, and
// the token stays raised at a join if ANY path into it carries an
// unlowered put.
func TestSolvePhaseTokens(t *testing.T) {
	run := func(src string) stringSet {
		cfg, _, _ := buildTestCFG(t, src)
		res := Solve(cfg, Forward, tokenLattice(stringSet{}, mayJoin, func(in stringSet, name string) stringSet {
			switch name {
			case "put":
				in["mb"] = true
			case "barrier":
				in = stringSet{}
			}
			return in
		}))
		return res.In[cfg.Exit]
	}

	// Barrier on only one branch: the token survives the join.
	tokens := run(`
func f(c bool, put, barrier func()) {
	put()
	if c {
		barrier()
	}
}`)
	if !tokens["mb"] {
		t.Error("one-sided barrier: token should survive the may-join")
	}

	// Barrier on every path: the token is definitely lowered.
	tokens = run(`
func f(c bool, put, barrier func()) {
	put()
	if c {
		barrier()
	} else {
		barrier()
	}
}`)
	if tokens["mb"] {
		t.Error("all-paths barrier: token should be lowered at exit")
	}

	// A put inside a loop stays raised across the back edge.
	tokens = run(`
func f(n int, put func()) {
	for i := 0; i < n; i++ {
		put()
	}
}`)
	if !tokens["mb"] {
		t.Error("loop put: token should reach exit through the loop exit edge")
	}
}

// TestSolveMustJoinTokens: a backward must-analysis (intersection meet)
// on the solver, where a "wait" only counts if it appears on EVERY path
// from the point to exit.
func TestSolveMustJoinTokens(t *testing.T) {
	run := func(src string) stringSet {
		cfg, _, _ := buildTestCFG(t, src)
		res := Solve(cfg, Backward, tokenLattice(stringSet{}, intersect, func(in stringSet, name string) stringSet {
			if name == "wait" {
				in["wg"] = true
			}
			return in
		}))
		return res.Out[cfg.Entry]
	}

	joined := run(`
func f(c bool, wait func()) {
	if c {
		wait()
	} else {
		wait()
	}
}`)
	if !joined["wg"] {
		t.Error("wait on both branches: wg must be joined on every path")
	}

	joined = run(`
func f(c bool, wait func()) {
	if c {
		wait()
	}
}`)
	if joined["wg"] {
		t.Error("wait on one branch only: wg must NOT count as joined")
	}
}
