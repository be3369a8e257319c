package workloads

import (
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// CCompLP labels connected components by label propagation — the
// shared-memory-parallel alternative to the Table 4 BFS formulation:
// every vertex starts with its own index as its label; Jacobi-style
// rounds of parallel min-propagation over edges run until a fixpoint.
// Each round reads the previous round's labels and writes a private
// next-label slot, so workers never race (and results are deterministic
// regardless of worker count). It converges in O(diameter) rounds at the
// cost of re-scanning every edge per round — the same trade the GPU
// side's hooking/pointer-jumping formulation makes.
//
// Native rounds propagate over the view's resolved Adj arrays; the
// instrumented run keeps the framework walk. Both converge in the same
// rounds to the same labels since the edge structure is identical.
//
// Labels land in CCompField as the minimum dense index of each component;
// component membership matches CComp exactly.
func CCompLP(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	lbl := g.EnsureField(CCompField)
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()
	tracked := t != nil
	w := workers(g, opt)

	cur := make([]float64, n)
	next := make([]float64, n)
	curSim := newSimArr(g, n, 8)
	nextSim := newSimArr(g, n, 8)
	for i := range cur {
		cur[i] = float64(i)
	}

	rounds := 0
	maxIters := opt.MaxIters
	if maxIters <= 0 {
		maxIters = 4*n + 8
	}
	for rounds < maxIters {
		rounds++
		var changed atomic.Bool
		concurrent.ParallelItems(n, w, 128, func(i int) {
			best := cur[i]
			if !tracked {
				for _, wi := range vw.Adj(narrow.Index32(i)) {
					if l := cur[wi]; l < best {
						best = l
					}
				}
			} else {
				curSim.Ld(i)
				v := vw.Verts[i]
				g.Neighbors(v, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					wi := int32(g.GetProp(nb, idxSlot))
					curSim.Ld(int(wi))
					l := cur[wi]
					lower := l < best
					branch(t, siteCompare, lower)
					inst(t, 2)
					if lower {
						best = l
					}
					return true
				})
				nextSim.St(i)
			}
			next[i] = best
			if best != cur[i] {
				changed.Store(true)
			}
		})
		cur, next = next, cur
		curSim, nextSim = nextSim, curSim
		if !changed.Load() {
			break
		}
	}

	// Publish labels (through the framework when tracked) and count
	// components.
	if !tracked {
		property.SetColumn(vw, lbl, cur)
	}
	seen := map[float64]int{}
	largest := 0
	for i, v := range vw.Verts {
		if tracked {
			g.SetProp(v, lbl, cur[i])
		}
		seen[cur[i]]++
		if seen[cur[i]] > largest {
			largest = seen[cur[i]]
		}
	}
	return &Result{
		Workload: "CCompLP",
		Visited:  int64(n) * int64(rounds),
		Checksum: float64(len(seen)),
		Stats: map[string]float64{
			"components": float64(len(seen)),
			"largest":    float64(largest),
			"rounds":     float64(rounds),
		},
	}, nil
}
