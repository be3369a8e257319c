package analysis

// A generic worklist solver for monotone dataflow problems over a CFG.
// Lattices are configured by value: the caller supplies the boundary
// fact, the meet operator, an equality test, and a per-block transfer
// function. The solver iterates to a fixed point in reverse post-order
// (forward) or post-order (backward), which converges in O(depth) passes
// for reducible graphs — every CFG BuildCFG produces is reducible except
// via goto, and the worklist handles those too, just slower.

// Direction selects fact propagation: Forward pushes facts along Succs
// edges (reaching definitions, value ranges), Backward along Preds
// (liveness).
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Lattice describes one dataflow problem with facts of type F.
type Lattice[F any] struct {
	// Boundary is the fact at the entry block (Forward) or exit block
	// (Backward) — the analysis context, e.g. the facts callers establish.
	Boundary F
	// Top is the identity of Meet, used to initialize interior blocks:
	// Meet(Top, x) must equal x.
	Top func() F
	// Meet combines facts at control-flow joins. It must be commutative,
	// associative and idempotent, and must not mutate its arguments.
	Meet func(a, b F) F
	// Equal reports fact equality; the solver stops when no block's input
	// changes under Equal.
	Equal func(a, b F) bool
	// Transfer computes the block's output fact from its input fact. It
	// must not mutate in; allocate a new fact when the block changes it.
	Transfer func(b *Block, in F) F
	// EdgeTransfer, when set, refines the fact flowing along one edge
	// before it is merged into the target block — the hook for branch
	// refinement (from.Cond with Succs[0]/Succs[1] as the true/false
	// edges) and range-head key binding. It must not mutate out.
	// Optional; ignored for Backward problems.
	EdgeTransfer func(from, to *Block, out F) F
	// Widen, when set, accelerates convergence on lattices of unbounded
	// height (e.g. intervals): at the target of a retreating edge whose
	// input keeps changing, the solver replaces the merged fact with
	// Widen(old, merged), which must be an upper bound of both and must
	// stabilize after finitely many applications. The first change along
	// a retreating edge is merged exactly (so simple symbolic joins keep
	// full precision); widening kicks in from the second change on.
	Widen func(old, merged F) F
}

// Result holds the fixed-point facts per block: In is the fact on entry
// to the block, Out the fact after its transfer (swap the reading for
// Backward: In flows from Succs, Out feeds Preds).
type Result[F any] struct {
	In, Out map[*Block]F
}

// Solve runs the worklist algorithm to a fixed point and returns the
// per-block facts. Unreachable blocks keep Top as their input.
func Solve[F any](c *CFG, dir Direction, lat Lattice[F]) Result[F] {
	res := Result[F]{In: map[*Block]F{}, Out: map[*Block]F{}}
	var boundary *Block
	var order []*Block
	if dir == Forward {
		boundary = c.Entry
		order = c.Reachable() // DFS pre-order approximates reverse post-order
	} else {
		boundary = c.Exit
		rev := c.Reachable()
		order = make([]*Block, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			order = append(order, rev[i])
		}
	}
	pos := map[*Block]int{}
	for i, b := range order {
		res.In[b] = lat.Top()
		pos[b] = i
	}
	if _, ok := pos[boundary]; !ok {
		// Exit can be unreachable (e.g. `for {}` with no break); nothing
		// flows in a backward problem then, but still seed it.
		order = append(order, boundary)
		pos[boundary] = len(order) - 1
		res.In[boundary] = lat.Top()
	}
	res.In[boundary] = lat.Boundary

	inWork := make([]bool, len(order))
	work := make([]*Block, len(order))
	copy(work, order)
	for i := range inWork {
		inWork[i] = true
	}
	flowInto := func(b *Block) []*Block {
		if dir == Forward {
			return b.Succs
		}
		return b.Preds
	}
	// backChanges counts fact changes arriving over retreating edges per
	// block, so widening starts only on the second change: the first join
	// at a loop head is often already precise (symbolic bounds), and
	// widening it away would cost proofs for nothing.
	var backChanges map[*Block]int
	if lat.Widen != nil {
		backChanges = map[*Block]int{}
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[pos[b]] = false
		out := lat.Transfer(b, res.In[b])
		res.Out[b] = out
		for _, next := range flowInto(b) {
			if _, reachable := pos[next]; !reachable {
				continue
			}
			eff := out
			if lat.EdgeTransfer != nil && dir == Forward {
				eff = lat.EdgeTransfer(b, next, out)
			}
			merged := lat.Meet(res.In[next], eff)
			if next == boundary {
				merged = lat.Meet(merged, lat.Boundary)
			}
			if !lat.Equal(merged, res.In[next]) {
				if lat.Widen != nil && pos[b] >= pos[next] { // retreating edge
					backChanges[next]++
					if backChanges[next] >= 2 {
						merged = lat.Widen(res.In[next], merged)
					}
				}
			}
			if !lat.Equal(merged, res.In[next]) {
				res.In[next] = merged
				if !inWork[pos[next]] {
					inWork[pos[next]] = true
					work = append(work, next)
				}
			}
		}
	}
	return res
}
