package workloads

import (
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// GCons constructs a directed graph with the vertex and edge population of
// the input graph, exercising the framework's insertion path (CompDyn).
// New vertices and edges are reused immediately after insertion, which is
// why the paper observes markedly better locality for GCons than for the
// other dynamic workloads (Fig 7 discussion).
//
// The constructed graph is returned through Result.Stats ("vertices",
// "edges") and discarded; the input graph is not modified.
func GCons(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	w := workers(g, opt)
	ng := property.New(property.Options{
		Directed: true,
		Tracker:  g.Tracker(),
		Arena:    g.Arena(),
		Hint:     n,
	})
	concurrent.ParallelItems(n, w, 128, func(i int) {
		ng.AddVertex(vw.Verts[i].ID)
	})
	// One atomic add per vertex, not per edge.
	var edges atomic.Int64
	concurrent.ParallelItems(n, w, 32, func(i int) {
		v := vw.Verts[i]
		var added int64
		g.Neighbors(v, func(_ int, e *property.Edge) bool {
			if ng.AddEdge(v.ID, e.To, e.Weight) == nil {
				added++
			}
			return true
		})
		edges.Add(added)
	})
	return &Result{
		Workload: "GCons",
		Visited:  edges.Load(),
		Checksum: float64(ng.VertexCount()) + float64(ng.EdgeCount()),
		Stats: map[string]float64{
			"vertices": float64(ng.VertexCount()),
			"edges":    float64(ng.EdgeCount()),
		},
	}, nil
}
