package workloads

import (
	"sort"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// TC counts triangles with Schank's ordered merge-intersection algorithm
// (the paper's cited method [32]). Each vertex first materializes the
// sorted list of higher-indexed neighbors; each edge (u,v) with u<v then
// merge-intersects the two lists. The intersection's compare branches are
// data-dependent — the reason TC shows the suite's worst branch
// mispredict rate (10.7% in Fig 6) and a heavy BadSpeculation share.
func TC(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()
	w := workers(g, opt)

	// Phase 1: per-vertex oriented neighbor lists. Orientation is by
	// degree rank (ties by index) — Schank's optimization: every edge is
	// directed from its lower-degree endpoint, which bounds the oriented
	// out-degrees by O(sqrt(E)) and keeps power-law hubs from exploding
	// the intersection cost. Lists are index-sorted for merging.
	deg := make([]int32, n)
	for i, v := range vw.Verts {
		deg[i] = narrow.Index32(v.OutDegree())
	}
	rankLess := func(a, b int32) bool {
		if deg[a] != deg[b] {
			return deg[a] < deg[b]
		}
		return a < b
	}
	adj := make([][]int32, n)
	total := 0
	for i, v := range vw.Verts {
		var lst []int32
		g.Neighbors(v, func(_ int, e *property.Edge) bool {
			nb := g.FindVertex(e.To)
			if nb == nil {
				return true
			}
			j := int32(g.GetProp(nb, idxSlot))
			keep := rankLess(narrow.Index32(i), j)
			branch(t, siteCompare, keep)
			if keep {
				lst = append(lst, j)
			}
			return true
		})
		sort.Slice(lst, func(a, b int) bool { return lst[a] < lst[b] })
		inst(t, uint64(len(lst))*4) // sort cost proxy
		adj[i] = lst
		total += len(lst)
	}
	adjSim := newSimArr(g, total+1, 4)
	base := make([]int, n+1)
	for i := 0; i < n; i++ {
		base[i+1] = base[i] + len(adj[i])
	}

	// Phase 2: merge intersections. With degree orientation each triangle
	// {a,b,c} is found exactly once, at its lowest-ranked vertex.
	var triangles atomic.Int64
	concurrent.ParallelItems(n, w, 16, func(u int) {
		au := adj[u]
		bu := base[u]
		local := int64(0)
		for k, v := range au {
			adjSim.Ld(bu + k)
			av := adj[v]
			a, b := 0, 0
			for iter := 0; a < len(au) && b < len(av); iter++ {
				adjSim.Ld(bu + a)
				adjSim.Ld(base[int(v)] + b)
				// Partially unrolled merge: the compiler turns two of
				// every three advances into cmov, the third stays a real
				// data-dependent branch — the unpredictable intersection
				// compares behind TC's outlier mispredict rate (Fig 6).
				inst(t, 4)
				if iter%3 == 0 {
					branch(t, siteIntersect, au[a] < av[b])
				}
				eq := au[a] == av[b]
				branch(t, siteCompare, eq)
				switch {
				case au[a] < av[b]:
					a++
				case au[a] > av[b]:
					b++
				default:
					local++
					a++
					b++
				}
			}
		}
		triangles.Add(local)
	})
	return &Result{
		Workload: "TC",
		Visited:  int64(total),
		Checksum: float64(triangles.Load()),
		Stats:    map[string]float64{"triangles": float64(triangles.Load())},
	}, nil
}
