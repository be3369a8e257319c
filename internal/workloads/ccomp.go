package workloads

import (
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/property"
)

// CCompField is the vertex property holding the component label.
const CCompField = "cc.label"

// CComp labels connected components. Following the paper (§4.2), the CPU
// implementation runs successive BFS traversals — one per component — on
// the unified frontier engine, which direction-optimizes inside each
// component in native mode. On directed graphs it computes weakly-connected
// components of the out-edge structure only (the suite's datasets store
// undirected graphs mirrored).
//
// The per-call Dist array doubles as the visited set across components, so
// each engine traversal claims only unlabeled vertices.
func CComp(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	lbl := g.EnsureField(CCompField)
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()
	if t != nil {
		// TrackedVisit reads the label property as its visited test; the
		// native run overwrites every slot after the last traversal.
		for _, v := range vw.Verts {
			v.SetPropRaw(lbl, -1)
		}
	}
	eng := newEngine(g, vw, opt.Workers, opt.engineSink)
	qSim := newSimArr(g, n, 4)

	dist := make([]int32, n)
	labels := make([]int32, n)
	for i := range dist {
		dist[i] = -1
		labels[i] = -1
	}

	comps := 0
	var touched int64
	var largest int64
	supersteps := 0
	var boundarySent int64
	for s := 0; s < n; s++ {
		inst(t, 2)
		seen := dist[s] >= 0
		branch(t, siteVisited, seen)
		if seen {
			continue
		}
		label := property.Index32(comps)
		comps++
		dist[s] = 0
		labels[s] = label
		g.SetProp(vw.Verts[s], lbl, float64(label))

		spec := engine.Spec{Dist: dist, Label: label, Labels: labels}
		if t != nil {
			labelVal := float64(label)
			spec.TrackedVisit = func(k int, ui, round int32, emit func(v int32) int) {
				qSim.Ld(k)
				u := vw.Verts[ui]
				g.Neighbors(u, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					seen := g.GetProp(nb, lbl) >= 0
					branch(t, siteVisited, seen)
					if seen {
						return true
					}
					nbIdx := int32(g.GetProp(nb, idxSlot))
					dist[nbIdx] = round
					labels[nbIdx] = label
					g.SetProp(nb, lbl, labelVal)
					qSim.St(emit(nbIdx))
					return true
				})
			}
		}
		st := eng.Traverse(&spec, property.Index32(s))
		touched += st.Reached
		if st.Reached > largest {
			largest = st.Reached
		}
		supersteps += st.Supersteps
		boundarySent += st.BoundarySent
	}
	if t == nil {
		eng.ForVertices(256, func(i int) {
			vw.Verts[i].SetPropRaw(lbl, float64(labels[i]))
		})
	}
	res := &Result{
		Workload: "CComp",
		Visited:  touched,
		Checksum: float64(comps),
		Stats: map[string]float64{
			"components": float64(comps),
			"largest":    float64(largest),
		},
	}
	if t == nil {
		partitionStats(vw, res, supersteps, boundarySent)
	}
	return res, nil
}
