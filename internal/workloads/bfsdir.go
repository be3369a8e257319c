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
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	lvl := g.EnsureField(BFSLevelField)
	t := g.Tracker()
	if t != nil {
		// The tracked formulation reads the level property as its visited
		// test; the native run writes every slot once, after the traversal.
		for _, v := range vw.Verts {
			v.SetPropRaw(lvl, -1)
		}
	}
	srcIdx, err := pick(vw, opt)
	if err != nil {
		return nil, err
	}
	if t != nil {
		return bfsDirOptTracked(g, vw, lvl, srcIdx, opt)
	}

	eng := engine.New(g, vw, opt.Workers)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[srcIdx] = 0
	st := eng.Traverse(&engine.Spec{Dist: dist}, srcIdx)
	property.SetColumn(vw, lvl, dist)
	sum := 0.0
	for i := range dist {
		if dist[i] >= 0 {
			sum += float64(dist[i])
		}
	}
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

// bfsDirOptTracked is the original single-threaded bitmap formulation with
// the alpha = 14 frontier-count switch, retained verbatim for instrumented
// runs.
func bfsDirOptTracked(g *property.Graph, vw *property.View, lvl int, srcIdx int32, opt Options) (*Result, error) {
	const alpha = 14
	n := vw.Len()
	t := g.Tracker()
	w := workers(g, opt)

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
		var produced int64
		if frontierSize > n/alpha {
			// Bottom-up: every unvisited vertex scans its neighbors for a
			// frontier member.
			bottomUpLevels++
			cnt := concurrent.NewCounter()
			concurrent.ParallelItems(n, w, 256, func(i int) {
				v := vw.Verts[i]
				seen := g.GetProp(v, lvl) >= 0
				branch(t, siteVisited, seen)
				if seen {
					return
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
						cnt.Add(i, 1)
						return false // parent found; stop scanning
					}
					return true
				})
			})
			produced = cnt.Value()
		} else {
			// Top-down over the frontier bitmap.
			cnt := concurrent.NewCounter()
			concurrent.ParallelItems(n, w, 256, func(i int) {
				fSim.Ld(i / 64)
				if !frontier.Test(i) {
					return
				}
				u := vw.Verts[i]
				g.Neighbors(u, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					seen := g.GetProp(nb, lvl) >= 0
					branch(t, siteVisited, seen)
					if !seen {
						// The bitmap arbitrates parallel discovery.
						j := int(vwIndex(g, nb))
						if next.TrySet(j) {
							g.SetProp(nb, lvl, levelVal)
							fSim.St(j / 64)
							cnt.Add(i, 1)
						}
					}
					return true
				})
			})
			produced = cnt.Value()
		}
		reached += produced
		frontierSize = int(produced)
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
	}, nil
}

// vwIndex reads a vertex's dense index through the framework.
func vwIndex(g *property.Graph, v *property.Vertex) int32 {
	return int32(g.GetProp(v, g.Schema().MustField(property.SysIndexField)))
}
