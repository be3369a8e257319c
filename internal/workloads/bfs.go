package workloads

import (
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/property"
)

// BFSLevelField is the vertex property holding the BFS level (program
// state lives in properties, per the paper's framework description).
const BFSLevelField = "bfs.level"

// BFS performs a level-synchronous breadth-first traversal from
// opt.Source, writing each reached vertex's level into BFSLevelField.
// It is the suite's most-used workload (10 of the 21 use cases, Fig 4).
//
// Both modes run on the unified frontier engine. Native runs
// direction-optimize over the view's index-resolved adjacency; the
// instrumented run supplies the per-edge framework walk as the engine's
// TrackedVisit body, reproducing the pre-engine event stream exactly.
func BFS(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	lvl := g.EnsureField(BFSLevelField)
	idxSlot := g.EnsureField(property.SysIndexField)
	srcIdx, err := pick(vw, opt)
	if err != nil {
		return nil, err
	}
	t := g.Tracker()
	if t == nil {
		st, sum := bfsLevels(g, vw, lvl, srcIdx, opt.Workers)
		return &Result{
			Workload: "BFS",
			Visited:  st.Reached,
			Checksum: sum,
			Stats:    map[string]float64{"depth": float64(st.Depth)},
		}, nil
	}

	// TrackedVisit reads the level property as its visited test.
	for _, v := range vw.Verts {
		v.SetPropRaw(lvl, -1)
	}
	eng := engine.New(g, vw, opt.Workers)
	qSim := newSimArr(g, n, 4)

	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[srcIdx] = 0
	g.SetProp(vw.Verts[srcIdx], lvl, 0)
	qSim.St(0)

	st := eng.Traverse(&engine.Spec{
		Dist: dist,
		TrackedVisit: func(k int, ui, round int32, emit func(v int32) int) {
			qSim.Ld(k)
			inst(t, 3)
			levelVal := float64(round)
			u := vw.Verts[ui]
			g.Neighbors(u, func(_ int, e *property.Edge) bool {
				nb := g.FindVertex(e.To)
				if nb == nil {
					return true
				}
				seen := g.GetProp(nb, lvl) >= 0
				branch(t, siteVisited, seen)
				if seen {
					return true
				}
				nbIdx := int32(g.GetProp(nb, idxSlot))
				dist[nbIdx] = round
				g.SetProp(nb, lvl, levelVal)
				qSim.St(emit(nbIdx))
				inst(t, 2)
				return true
			})
		},
	}, srcIdx)
	return &Result{
		Workload: "BFS",
		Visited:  st.Reached,
		Checksum: levelSum(dist),
		Stats:    map[string]float64{"depth": float64(st.Depth)},
	}, nil
}
