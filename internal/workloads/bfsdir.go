package workloads

import (
	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/property"
)

// BFSDirOpt is the direction-optimizing BFS (Beamer-style): level-
// synchronous top-down expansion switches to bottom-up sweeps when the
// frontier grows beyond a fraction of the graph, which skips most of the
// edge examinations on low-diameter social graphs. It is an extension
// beyond the paper's Table 4 used by the traversal-strategy ablation;
// results (levels, reach) are identical to BFS.
//
// Native runs delegate to the engine's unified direction optimizer
// (engine.Alpha/Beta thresholds over the index-resolved view); the
// instrumented run keeps the original bitmap formulation below, whose
// per-level event stream — including the bottom-up sweeps the ablation
// measures — is part of the recorded figures.
func BFSDirOpt(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	if vw.Len() == 0 {
		return nil, ErrEmptyGraph
	}
	lvl := g.EnsureField(BFSLevelField)
	srcIdx, err := pick(vw, opt)
	if err != nil {
		return nil, err
	}
	if g.Tracker() != nil {
		return bfsDirOptTracked(g, vw, lvl, srcIdx), nil
	}
	st, sum := bfsLevels(g, vw, lvl, srcIdx, opt.Workers)
	return &Result{
		Workload: "BFSDirOpt",
		Visited:  st.Reached,
		Checksum: sum,
		Stats: map[string]float64{
			"depth":            float64(st.Depth),
			"bottom_up_levels": float64(st.PullRounds),
		},
	}, nil
}

// bfsLevels is the native run of BFS and BFSDirOpt: the engine's
// direction-optimizing traversal from srcIdx, its levels handed back to
// the field with SetColumn. It returns the engine's stats and the sum of
// the reached levels.
func bfsLevels(g *property.Graph, vw *property.View, lvl int, srcIdx int32, workers int) (engine.Stats, float64) {
	dist := make([]int32, vw.Len())
	for i := range dist {
		dist[i] = -1
	}
	dist[srcIdx] = 0
	st := engine.New(g, vw, workers).Traverse(&engine.Spec{Dist: dist}, srcIdx)
	property.SetColumn(vw, lvl, dist)
	return st, levelSum(dist)
}

// levelSum is the level checksum: the sum of every reached level.
func levelSum(dist []int32) float64 {
	sum := 0.0
	for _, d := range dist {
		if d >= 0 {
			sum += float64(d)
		}
	}
	return sum
}

// bfsDirOptTracked is the original bitmap formulation with the alpha = 14
// frontier-count switch, retained for instrumented runs: its per-level
// event stream, bottom-up sweeps included, is part of the recorded
// figures. It runs single-threaded, in vertex index order.
func bfsDirOptTracked(g *property.Graph, vw *property.View, lvl int, srcIdx int32) *Result {
	const alpha = 14
	n := vw.Len()
	t := g.Tracker()
	idxSlot := g.Schema().MustField(property.SysIndexField)
	// The tracked formulation reads the level property as its visited test.
	for _, v := range vw.Verts {
		v.SetPropRaw(lvl, -1)
	}

	frontier := concurrent.NewHierBitmap(n)
	next := concurrent.NewHierBitmap(n)
	fSim := newSimArr(g, n/8+1, 8)

	src := vw.Verts[srcIdx]
	g.SetProp(src, lvl, 0)
	frontier.Set(int(srcIdx))
	fSim.St(int(srcIdx) / 64)
	frontierSize := 1
	reached := int64(1)
	depth := 0
	bottomUpLevels := 0

	for frontierSize > 0 {
		depth++
		levelVal := float64(depth)
		produced := 0
		if frontierSize > n/alpha {
			// Bottom-up: every unvisited vertex scans its neighbors for a
			// frontier member.
			bottomUpLevels++
			for i, v := range vw.Verts {
				seen := g.GetProp(v, lvl) >= 0
				branch(t, siteVisited, seen)
				if seen {
					continue
				}
				g.Neighbors(v, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					onFrontier := g.GetProp(nb, lvl) == float64(depth-1)
					branch(t, siteLevel, onFrontier)
					if onFrontier {
						g.SetProp(v, lvl, levelVal)
						next.Set(i)
						fSim.St(i / 64)
						produced++
						return false // parent found; stop scanning
					}
					return true
				})
			}
		} else {
			// Top-down over the frontier bitmap.
			for i, u := range vw.Verts {
				fSim.Ld(i / 64)
				if !frontier.Test(i) {
					continue
				}
				g.Neighbors(u, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					seen := g.GetProp(nb, lvl) >= 0
					branch(t, siteVisited, seen)
					if !seen {
						j := int(g.GetProp(nb, idxSlot))
						g.SetProp(nb, lvl, levelVal)
						next.Set(j)
						fSim.St(j / 64)
						produced++
					}
					return true
				})
			}
		}
		reached += int64(produced)
		frontierSize = produced
		frontier, next = next, frontier
		next.Clear()
	}

	sum := 0.0
	for _, v := range vw.Verts {
		if l := v.Prop(lvl); l >= 0 {
			sum += l
		}
	}
	return &Result{
		Workload: "BFSDirOpt",
		Visited:  reached,
		Checksum: sum,
		Stats: map[string]float64{
			"depth":            float64(depth - 1),
			"bottom_up_levels": float64(bottomUpLevels),
		},
	}
}
