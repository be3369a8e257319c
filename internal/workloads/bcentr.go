package workloads

import (
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// BCentrField is the vertex property accumulating betweenness centrality.
const BCentrField = "bcentr"

// BCentr computes (sampled) betweenness centrality with Brandes' algorithm
// [21]: per source, a forward BFS accumulates shortest-path counts (sigma),
// then a reverse sweep over the BFS order accumulates dependencies (delta).
// The backward pass re-scans adjacency lists instead of storing predecessor
// lists, the memory-lean variant used on large graphs. The floating-point
// dependency accumulation gives BCentr the heaviest numeric component of
// the social-analysis workloads.
//
// Both modes share the per-source reset, the BFS queue (which doubles as
// the visit order), both passes and the write-back. Per vertex a native
// run ranges the view's resolved Adj array; an instrumented run walks the
// same neighbors through Neighbors, FindVertex and GetProp, accumulates
// into the field as well, and reports its simulated array accesses in
// tracker-only blocks that the native loops never enter. Sigma sums are
// integer-exact, and both modes add a vertex's dependency terms in the one
// loop over its Adj row, so the centralities are bit-identical across
// modes.
//
// opt.Samples selects the number of source vertices (default 8, spread
// deterministically over the vertex range); exact betweenness uses
// Samples >= n.
func BCentr(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	bc := g.EnsureField(BCentrField)
	k := opt.Samples
	if k <= 0 {
		k = 8
	}
	if k > n {
		k = n
	}
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()
	if t != nil {
		// The tracked sweep accumulates into the field.
		for _, v := range vw.Verts {
			v.SetPropRaw(bc, 0)
		}
	}
	sigSim, dstSim := newSimArr(g, n, 8), newSimArr(g, n, 4)
	dltSim, ordSim := newSimArr(g, n, 8), newSimArr(g, n, 4)

	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	bcv := make([]float64, n)
	order := make([]int32, 0, n) // the BFS queue, then the visit order

	touched := int64(0)
	for s := 0; s < k; s++ {
		srcIdx := narrow.Index32(int(uint64(s) * uint64(n) / uint64(k)))
		for i := range sigma {
			sigma[i], dist[i], delta[i] = 0, -1, 0
		}
		sigma[srcIdx] = 1
		dist[srcIdx] = 0
		sigSim.St(int(srcIdx))
		dstSim.St(int(srcIdx))

		// Forward BFS accumulating path counts.
		order = append(order[:0], srcIdx)
		for qh := 0; qh < len(order); qh++ {
			ui := order[qh]
			du := dist[ui]
			if t == nil {
				for _, wi := range vw.Adj(ui) {
					if dist[wi] < 0 {
						dist[wi] = du + 1
						order = append(order, wi)
						touched++
					}
					if dist[wi] == du+1 {
						sigma[wi] += sigma[ui]
					}
				}
				continue
			}
			ordSim.Ld(qh)
			ordSim.St(qh)
			// The callback appends through its own copies, so the native
			// loop's order and touched stay in registers.
			queue, found := order, touched
			g.Neighbors(vw.Verts[ui], func(_ int, e *property.Edge) bool {
				nb := g.FindVertex(e.To)
				if nb == nil {
					return true
				}
				wi := int32(g.GetProp(nb, idxSlot))
				dstSim.Ld(int(wi))
				fresh := dist[wi] < 0
				branch(t, siteVisited, fresh)
				if fresh {
					dist[wi] = du + 1
					dstSim.St(int(wi))
					queue = append(queue, wi)
					found++
				}
				onPath := dist[wi] == du+1
				branch(t, siteLevel, onPath)
				if onPath {
					sigSim.Ld(int(wi))
					sigSim.Ld(int(ui))
					sigma[wi] += sigma[ui]
					sigSim.St(int(wi))
					inst(t, 4)
				}
				return true
			})
			order, touched = queue, found
		}

		// Backward dependency accumulation in reverse BFS order.
		for oi := len(order) - 1; oi >= 0; oi-- {
			vi := order[oi]
			dv := dist[vi]
			// Both modes sum the successor terms in Adj order, so the
			// rounding, and the result, is the same; the tracked walk
			// below only reports the accesses, in adjacency-list order.
			for _, wi := range vw.Adj(vi) {
				if dist[wi] == dv+1 {
					delta[vi] += sigma[vi] / sigma[wi] * (1 + delta[wi])
				}
			}
			if t != nil {
				ordSim.Ld(oi)
				g.Neighbors(vw.Verts[vi], func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					wi := int32(g.GetProp(nb, idxSlot))
					dstSim.Ld(int(wi))
					downstream := dist[wi] == dv+1
					branch(t, siteLevel, downstream)
					if downstream {
						sigSim.Ld(int(vi))
						sigSim.Ld(int(wi))
						dltSim.Ld(int(wi))
						dltSim.Ld(int(vi))
						dltSim.St(int(vi))
						inst(t, 8)
					}
					return true
				})
			}
			if vi != srcIdx {
				bcv[vi] += delta[vi]
				if t != nil {
					v := vw.Verts[vi]
					g.SetProp(v, bc, g.GetProp(v, bc)+delta[vi])
					inst(t, 2)
				}
			}
		}
	}
	property.SetColumn(vw, bc, bcv)
	sum := 0.0
	for _, x := range bcv {
		sum += x
	}
	return &Result{
		Workload: "BCentr",
		Visited:  touched,
		Checksum: sum,
		Stats:    map[string]float64{"sources": float64(k)},
	}, nil
}
