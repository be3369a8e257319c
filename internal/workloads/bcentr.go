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
// The native path runs the identical sweeps over the view's resolved Adj
// arrays; sigma sums are integer-exact and the delta accumulation keeps
// the per-vertex adjacency order, so centralities are bit-identical to the
// framework walk kept for instrumented runs.
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
	if g.Tracker() != nil {
		// The tracked sweep accumulates into the field.
		for _, v := range vw.Verts {
			v.SetPropRaw(bc, 0)
		}
		return bcentrTracked(g, vw, bc, k)
	}

	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	bcv := make([]float64, n)
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)

	touched := int64(0)
	for s := 0; s < k; s++ {
		srcIdx := narrow.Index32(int(uint64(s) * uint64(n) / uint64(k)))
		for i := range sigma {
			sigma[i], dist[i], delta[i] = 0, -1, 0
		}
		order = order[:0]
		sigma[srcIdx] = 1
		dist[srcIdx] = 0

		// Forward BFS accumulating path counts.
		queue = append(queue[:0], srcIdx)
		for qh := 0; qh < len(queue); qh++ {
			ui := queue[qh]
			order = append(order, ui)
			du := dist[ui]
			for _, wi := range vw.Adj(ui) {
				if dist[wi] < 0 {
					dist[wi] = du + 1
					queue = append(queue, wi)
					touched++
				}
				if dist[wi] == du+1 {
					sigma[wi] += sigma[ui]
				}
			}
		}

		// Backward dependency accumulation in reverse BFS order.
		for oi := len(order) - 1; oi >= 0; oi-- {
			vi := order[oi]
			dv := dist[vi]
			for _, wi := range vw.Adj(vi) {
				if dist[wi] == dv+1 {
					delta[vi] += sigma[vi] / sigma[wi] * (1 + delta[wi])
				}
			}
			if vi != srcIdx {
				bcv[vi] += delta[vi]
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

// bcentrTracked is the original framework-primitive Brandes sweep retained
// for instrumented runs.
func bcentrTracked(g *property.Graph, vw *property.View, bc, k int) (*Result, error) {
	n := vw.Len()
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()

	sigma := make([]float64, n)
	dist := make([]int32, n)
	delta := make([]float64, n)
	order := make([]int32, 0, n)
	sigSim := newSimArr(g, n, 8)
	dstSim := newSimArr(g, n, 4)
	dltSim := newSimArr(g, n, 8)
	ordSim := newSimArr(g, n, 4)

	touched := int64(0)
	for s := 0; s < k; s++ {
		srcIdx := narrow.Index32(int(uint64(s) * uint64(n) / uint64(k)))
		for i := range sigma {
			sigma[i], dist[i], delta[i] = 0, -1, 0
		}
		order = order[:0]
		sigma[srcIdx] = 1
		dist[srcIdx] = 0
		sigSim.St(int(srcIdx))
		dstSim.St(int(srcIdx))

		// Forward BFS accumulating path counts.
		// The queue grows inside the Neighbors callback, so a plain
		// queue[qh] pop cannot be bounds-proven; draining snapshot
		// batches visits the same elements in the same (append) order
		// with the indexing replaced by a range.
		queue := []int32{srcIdx}
		for head := 0; head < len(queue); {
			batch := queue[head:]
			qbase := head
			head = len(queue)
			for bi, ui := range batch {
				ordSim.Ld(qbase + bi)
				order = append(order, ui)
				ordSim.St(len(order) - 1)
				u := vw.Verts[ui]
				du := dist[ui]
				g.Neighbors(u, func(_ int, e *property.Edge) bool {
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
						touched++
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
			}
		}

		// Backward dependency accumulation in reverse BFS order.
		for oi := len(order) - 1; oi >= 0; oi-- {
			ordSim.Ld(oi)
			vi := order[oi]
			v := vw.Verts[vi]
			dv := dist[vi]
			g.Neighbors(v, func(_ int, e *property.Edge) bool {
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
					delta[vi] += sigma[vi] / sigma[wi] * (1 + delta[wi])
					dltSim.St(int(vi))
					inst(t, 8)
				}
				return true
			})
			if vi != srcIdx {
				g.SetProp(v, bc, g.GetProp(v, bc)+delta[vi])
				inst(t, 2)
			}
		}
	}
	sum := 0.0
	for _, v := range vw.Verts {
		sum += v.Prop(bc)
	}
	return &Result{
		Workload: "BCentr",
		Visited:  touched,
		Checksum: sum,
		Stats:    map[string]float64{"sources": float64(k)},
	}, nil
}
