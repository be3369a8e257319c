package workloads

import (
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// CCompField is the vertex property holding the component label.
const CCompField = "cc.label"

// CComp labels connected components. Following the paper (§4.2), the CPU
// implementation runs successive BFS traversals, one per component: native
// runs on the frontier engine, which direction-optimizes inside each
// component, instrumented runs as a sequential level-synchronous loop over
// the framework primitives. Seeds are tried in View order, each labelling
// the unlabeled vertices it reaches by out-edges: on undirected graphs,
// stored mirrored like the suite's datasets, those are the connected
// components for any order. On a directed graph they are neither the weakly
// connected components nor independent of the View's order.
//
// The Dist array doubles as the visited set across components, so each
// traversal claims only unlabeled vertices.
func CComp(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	verts := vw.Verts
	n := len(verts)
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	lbl := g.EnsureField(CCompField)
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()
	// cur and next are the tracked loop's current and next level, the two
	// halves of one buffer reused across components; qSim's slot is the
	// position within a level.
	var cur, next []int32
	// labels is the native run's result column, which the engine fills and
	// SetColumn writes back.
	var labels []int32
	if t != nil {
		// The tracked loop reads the label property as its visited test;
		// the native run overwrites every slot after the last traversal.
		for _, v := range verts {
			v.SetPropRaw(lbl, -1)
		}
		levels := make([]int32, 2*n)
		cur, next = levels[:0:n], levels[n:n]
	} else {
		labels = make([]int32, n)
		for i := range labels {
			labels[i] = -1
		}
	}
	eng := engine.New(g, vw, opt.Workers)
	qSim := newSimArr(g, n, 4)

	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
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
		g.SetProp(verts[s], lbl, float64(label))

		src := narrow.Index32(s)
		reached := int64(1)
		if t == nil {
			labels[s] = label
			reached = eng.Traverse(&engine.Spec{Dist: dist, Label: label, Labels: labels}, src).Reached
		} else {
			labelVal := float64(label)
			cur = append(cur, src)
			for round := int32(1); len(cur) > 0; round++ {
				for k, ui := range cur {
					qSim.Ld(k)
					g.Neighbors(verts[ui], func(_ int, e *property.Edge) bool {
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
						g.SetProp(nb, lbl, labelVal)
						next = append(next, nbIdx)
						qSim.St(len(next) - 1)
						return true
					})
				}
				reached += int64(len(next))
				cur, next = next, cur[:0]
			}
		}
		touched += reached
		if reached > largest {
			largest = reached
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
