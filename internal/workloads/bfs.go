package workloads

import "github.com/graphbig/graphbig-go/internal/property"

// BFSLevelField is the vertex property holding the BFS level (program
// state lives in properties, per the paper's framework description).
const BFSLevelField = "bfs.level"

// BFS performs a level-synchronous breadth-first traversal from
// opt.Source, writing each reached vertex's level into BFSLevelField.
// It is the suite's most-used workload (10 of the 21 use cases, Fig 4).
//
// Native runs direction-optimize on the frontier engine over the view's
// index-resolved adjacency; the instrumented run is a sequential
// level-synchronous loop over the framework primitives.
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

	// The tracked loop reads the level property as its visited test.
	for _, v := range vw.Verts {
		v.SetPropRaw(lvl, -1)
	}
	qSim := newSimArr(g, n, 4)
	g.SetProp(vw.Verts[srcIdx], lvl, 0)
	qSim.St(0)

	// cur and next are the current and next level, the two halves of one
	// buffer; qSim's slot is the position within a level. sum is the level
	// checksum, one level at a time.
	levels := make([]int32, 2*n)
	cur, next := levels[:1:n], levels[n:n]
	cur[0] = srcIdx
	reached, depth, sum := int64(1), int32(0), 0.0
	for round := int32(1); len(cur) > 0; round++ {
		levelVal := float64(round)
		for k, ui := range cur {
			qSim.Ld(k)
			inst(t, 3)
			g.Neighbors(vw.Verts[ui], func(_ int, e *property.Edge) bool {
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
				g.SetProp(nb, lvl, levelVal)
				next = append(next, nbIdx)
				qSim.St(len(next) - 1)
				inst(t, 2)
				return true
			})
		}
		if len(next) > 0 {
			depth = round
		}
		reached += int64(len(next))
		sum += levelVal * float64(len(next))
		cur, next = next, cur[:0]
	}
	return &Result{
		Workload: "BFS",
		Visited:  reached,
		Checksum: sum,
		Stats:    map[string]float64{"depth": float64(depth)},
	}, nil
}
