package workloads

import (
	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// DCentrField is the vertex property holding the degree centrality.
const DCentrField = "dcentr"

// DCentr computes degree centrality [15]: every vertex's adjacency list is
// walked through the framework and its normalized degree stored back as a
// property. The workload performs almost no computation per edge record
// touched and keeps no task queue or other hot local structure — which is
// exactly why the paper measures DCentr with the suite's highest L3 MPKI
// (145.9) and its lowest L1D hit rate (Fig 7, Fig 9 discussion).
//
// The native path reads the resolved per-vertex degree straight off the
// view's offset array; instrumented runs keep walking the adjacency so
// the measured access pattern is unchanged.
func DCentr(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	dc := g.EnsureField(DCentrField)
	t := g.Tracker()
	norm := 1.0
	if n > 1 {
		norm = 1 / float64(n-1)
	}
	if t == nil {
		eng := engine.New(g, vw, opt.Workers)
		dcv := make([]float64, n)
		eng.ForVertices(256, func(i int) {
			deg := int(vw.Degree(narrow.Index32(i)))
			if g.Directed() {
				deg += vw.Verts[i].InDegree()
			}
			dcv[i] = float64(deg) * norm
		})
		property.SetColumn(vw, dc, dcv)
		sum := 0.0
		for _, x := range dcv {
			sum += x
		}
		return &Result{
			Workload: "DCentr",
			Visited:  int64(n),
			Checksum: sum,
			Stats:    map[string]float64{},
		}, nil
	}

	w := workers(g, opt)
	concurrent.ParallelItems(n, w, 256, func(i int) {
		v := vw.Verts[i]
		deg := 0
		g.Neighbors(v, func(_ int, e *property.Edge) bool {
			deg++
			inst(t, 1)
			return true
		})
		if g.Directed() {
			// In-degree contributes when tracked (directed datasets).
			deg += v.InDegree()
			inst(t, 2)
		}
		g.SetProp(v, dc, float64(deg)*norm)
	})
	sum := 0.0
	for _, v := range vw.Verts {
		sum += v.Prop(dc)
	}
	return &Result{
		Workload: "DCentr",
		Visited:  int64(n),
		Checksum: sum,
		Stats:    map[string]float64{},
	}, nil
}
