package workloads

import (
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// CCentrField is the vertex property holding the closeness centrality.
const CCentrField = "ccentr"

// CCentr computes (sampled) closeness centrality. The paper's §4.2 leaves
// it out of Table 4 because "closeness centrality shares significant
// similarity with shortest path"; it is provided as an extension workload
// for completeness of the social-analysis category.
//
// For each sampled source, an unweighted BFS accumulates distance sums;
// closeness(v) = (reached-1) / sum-of-distances, harmonically corrected
// for disconnected graphs the standard way (Wasserman-Faust): scaled by
// (reached-1)/(n-1). opt.Samples bounds the source count (default 8);
// Samples >= n computes exact closeness on undirected graphs.
func CCentr(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	cc := g.EnsureField(CCentrField)
	idxSlot := g.EnsureField(property.SysIndexField)
	for _, v := range vw.Verts {
		v.SetPropRaw(cc, 0)
	}
	t := g.Tracker()

	k := opt.Samples
	if k <= 0 {
		k = 8
	}
	if k > n {
		k = n
	}

	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	dSim := newSimArr(g, n, 4)
	qSim := newSimArr(g, n, 4)

	touched := int64(0)
	// Sampled sources accumulate distance sums per *source*; with full
	// sampling on an undirected graph this equals per-target sums, so the
	// closeness of every vertex is exact. With sampling, the per-source
	// estimates are averaged into the sources' own closeness values.
	for s := 0; s < k; s++ {
		srcIdx := narrow.Index32(int(uint64(s) * uint64(n) / uint64(k)))
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[srcIdx] = 0
		dSim.St(int(srcIdx))
		queue = append(queue, srcIdx)
		qSim.St(0)
		sum := 0.0
		reached := 1
		// Snapshot-batch drain: the queue grows inside the Neighbors
		// callback, so queue[qh] cannot be bounds-proven; ranging over
		// batches visits the same elements in the same (append) order.
		for head := 0; head < len(queue); {
			batch := queue[head:]
			qbase := head
			head = len(queue)
			for bi, ui := range batch {
				qSim.Ld(qbase + bi)
				u := vw.Verts[ui]
				du := dist[ui]
				g.Neighbors(u, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					wi := int32(g.GetProp(nb, idxSlot))
					dSim.Ld(int(wi))
					fresh := dist[wi] < 0
					branch(t, siteVisited, fresh)
					if fresh {
						dist[wi] = du + 1
						dSim.St(int(wi))
						queue = append(queue, wi)
						qSim.St(len(queue) - 1)
						sum += float64(du + 1)
						reached++
						touched++
						inst(t, 3)
					}
					return true
				})
			}
		}
		src := vw.Verts[srcIdx]
		if sum > 0 && n > 1 {
			frac := float64(reached-1) / float64(n-1)
			g.SetProp(src, cc, float64(reached-1)/sum*frac)
		}
		inst(t, 8)
	}
	total := 0.0
	for _, v := range vw.Verts {
		total += v.Prop(cc)
	}
	return &Result{
		Workload: "CCentr",
		Visited:  touched,
		Checksum: total,
		Stats:    map[string]float64{"sources": float64(k)},
	}, nil
}
