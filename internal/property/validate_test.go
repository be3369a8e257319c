package property

import (
	"math/rand/v2"
	"testing"
)

func TestValidateCleanGraph(t *testing.T) {
	g := New(Options{})
	for i := VertexID(0); i < 10; i++ {
		g.AddVertex(i)
	}
	for i := VertexID(0); i < 9; i++ {
		g.AddEdge(i, i+1, 1)
	}
	if err := Validate(g); err != nil {
		t.Errorf("clean graph invalid: %v", err)
	}
}

func TestValidateAfterRandomMutations(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := New(Options{Directed: directed, TrackInEdges: directed, Shards: 16})
		r := rand.New(rand.NewPCG(5, uint64(boolInt(directed))))
		const idSpace = 40
		for op := 0; op < 3000; op++ {
			a := VertexID(r.IntN(idSpace))
			b := VertexID(r.IntN(idSpace))
			switch r.IntN(6) {
			case 0, 1, 2:
				g.AddVertex(a)
			case 3:
				// Few weights, so parallel edges of different weights and
				// mirrors removed by weight both come up.
				_ = g.AddEdge(a, b, float64(r.IntN(3)))
			case 4:
				g.DeleteEdge(a, b)
			case 5:
				if _, err := g.DeleteVertex(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := Validate(g); err != nil {
			t.Errorf("directed=%v: %v", directed, err)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := New(Options{})
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2, 1)
	// Corrupt: orphan one mirror record.
	v := g.FindVertex(1)
	v.Out = v.Out[:0]
	if err := Validate(g); err == nil {
		t.Error("asymmetric storage not detected")
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
