package property

import (
	"fmt"
	"math"
)

// Validate checks the graph's structural invariants and returns the first
// violation found, or nil. It is used by the fuzz-style tests and is safe
// to run on any quiescent graph:
//
//   - every indexed vertex is live and findable,
//   - no edge points at a missing vertex,
//   - undirected storage is symmetric (each record's mirror, of the same
//     weight, with the same multiplicity),
//   - directed in-lists exactly mirror out-records when tracked,
//   - the logical edge counter matches the stored records.
func Validate(g *Graph) error {
	records := 0
	liveCount := 0
	var err error
	g.ForEachVertex(func(v *Vertex) {
		if err != nil {
			return
		}
		liveCount++
		if got := g.FindVertex(v.ID); got != v {
			err = fmt.Errorf("property: vertex %d not findable through index", v.ID)
			return
		}
		records += len(v.Out)
		for _, e := range v.Out {
			to := g.FindVertex(e.To)
			if to == nil {
				err = fmt.Errorf("property: dangling edge %d->%d", v.ID, e.To)
				return
			}
			if !g.directed && e.To != v.ID {
				if countOut(to, v.ID, &e.Weight) != countOut(v, e.To, &e.Weight) {
					err = fmt.Errorf("property: asymmetric undirected storage %d<->%d", v.ID, e.To)
					return
				}
			}
			if g.directed && g.trackIn {
				if countIn(to, v.ID) != countOut(v, e.To, nil) {
					err = fmt.Errorf("property: in-list of %d does not mirror %d's out-records", e.To, v.ID)
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	if liveCount != g.VertexCount() {
		return fmt.Errorf("property: VertexCount %d != live vertices %d", g.VertexCount(), liveCount)
	}
	logical := records
	if !g.directed {
		// Undirected edges — including self loops — store two records.
		logical = records / 2
	}
	if logical != g.EdgeCount() {
		return fmt.Errorf("property: EdgeCount %d != stored logical edges %d", g.EdgeCount(), logical)
	}
	return nil
}

// countOut counts v's records to to, of weight *w only when w is non-nil.
func countOut(v *Vertex, to VertexID, w *float64) int {
	n := 0
	for _, e := range v.Out {
		if e.To == to && (w == nil || math.Float64bits(e.Weight) == math.Float64bits(*w)) {
			n++
		}
	}
	return n
}

func countIn(v *Vertex, from VertexID) int {
	n := 0
	for _, id := range v.In {
		if id == from {
			n++
		}
	}
	return n
}
