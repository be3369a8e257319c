package workloads

import (
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// CCompField is the vertex property holding the component label.
const CCompField = "cc.label"

// CComp labels connected components. Following the paper (§4.2), the CPU
// implementation runs successive BFS traversals — one per component — on
// the unified frontier engine, which direction-optimizes inside each
// component in native mode. Seeds are tried in View order, each labelling
// the unlabeled vertices it reaches by out-edges: on undirected graphs,
// stored mirrored like the suite's datasets, those are the connected
// components for any order. On a directed graph they are neither the weakly
// connected components nor independent of the View's order.
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
	eng := engine.New(g, vw, opt.Workers)
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
	for s := 0; s < n; s++ {
		inst(t, 2)
		seen := dist[s] >= 0
		branch(t, siteVisited, seen)
		if seen {
			continue
		}
		label := narrow.Index32(comps)
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
		st := eng.Traverse(&spec, narrow.Index32(s))
		touched += st.Reached
		if st.Reached > largest {
			largest = st.Reached
		}
	}
	if t == nil {
		property.SetColumn(vw, lbl, labels)
	}
	return &Result{
		Workload: "CComp",
		Visited:  touched,
		Checksum: float64(comps),
		Stats: map[string]float64{
			"components": float64(comps),
			"largest":    float64(largest),
		},
	}, nil
}
