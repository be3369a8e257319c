package engine

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
)

// TestTraverseConcurrentEnginesStress runs many push and direction-
// optimized traversals concurrently over one shared View, with worker
// counts drawn from a seeded generator. Engines are per-goroutine (an
// Engine is not safe for concurrent Traverse calls), but the View, its
// CSR arrays and the Graph are shared read-only — this is the shape a
// benchmark harness sweeping worker counts produces, and the test exists
// to let `go test -race` patrol it. The two-ended lollipop adds the seam
// inside one traversal: its rounds go serial, forked, serial for the
// length of the path, forked again, so the same Dist array passes from
// plain stores to CAS claims and back under the detector's eyes. Each
// goroutine then hands its levels back through property.SetColumn into a
// field of its own, so column writes of different fields share the View's
// segments and chunks concurrently, first column allocations included.
func TestTraverseConcurrentEnginesStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *property.Graph
	}{
		{"ldbc", gen.LDBC(1500, 6, 42)},
		{"lollipop", lollipop(seamClique, 100, true)},
	} {
		g := tc.g
		vw := g.View()

		ref := newDist(len(vw.Verts))
		ref[0] = 0
		refStats := New(g, vw, 1).Traverse(&Spec{Dist: ref, NoPull: true}, 0)
		if refStats.Reached == 0 {
			t.Fatalf("%s: reference traversal reached nothing", tc.name)
		}

		rng := rand.New(rand.NewPCG(42, 1))
		const goroutines = 8
		rounds := 4
		if testing.Short() {
			rounds = 2
		}
		var slots [goroutines]int
		for gi := range slots {
			slots[gi] = g.EnsureField(fmt.Sprintf("stress.level.%d", gi))
		}
		var wg sync.WaitGroup
		for gi := 0; gi < goroutines; gi++ {
			workers := 1 + rng.IntN(8)
			noPull := gi%2 == 0
			slot := slots[gi]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					eng := New(g, vw, workers)
					dist := newDist(eng.N())
					dist[0] = 0
					st := eng.Traverse(&Spec{Dist: dist, NoPull: noPull}, 0)
					if st.Reached != refStats.Reached || st.Depth != refStats.Depth {
						t.Errorf("%s workers=%d noPull=%v: stats %+v, want %+v", tc.name, workers, noPull, st, refStats)
						return
					}
					for i := range dist {
						if dist[i] != ref[i] {
							t.Errorf("%s workers=%d noPull=%v: dist[%d] = %d, want %d", tc.name, workers, noPull, i, dist[i], ref[i])
							return
						}
					}
					property.SetColumn(vw, slot, dist)
					for i, v := range vw.Verts {
						if got := v.Prop(slot); got != float64(ref[i]) {
							t.Errorf("%s workers=%d noPull=%v: written level of %d = %v, want %d", tc.name, workers, noPull, i, got, ref[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
