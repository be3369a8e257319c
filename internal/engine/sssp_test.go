package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

// sssp runs Engine.SSSP from src with bucket width delta and returns the
// distances.
func sssp(g *property.Graph, vw *property.View, workers int, delta float64, src int32) ([]float64, SSSPStats) {
	e := New(g, vw, workers)
	dist := make([]float64, e.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	st := e.SSSP(dist, delta, src)
	return dist, st
}

// bellmanFord is the reference the delta-stepping kernel is held to: the
// fixpoint of the distance equations, relaxed in index order.
func bellmanFord(vw *property.View, src int32) []float64 {
	want := make([]float64, vw.Len())
	for i := range want {
		want[i] = math.Inf(1)
	}
	want[src] = 0
	for changed := true; changed; {
		changed = false
		for u := range int32(vw.Len()) {
			du := want[u]
			if math.IsInf(du, 1) {
				continue
			}
			wts := vw.AdjW(u)
			for j, v := range vw.Adj(u) {
				if nd := du + wts[j]; nd < want[v] {
					want[v], changed = nd, true
				}
			}
		}
	}
	return want
}

// TestSSSPMatchesBellmanFord holds the delta-stepping kernel to
// Bellman-Ford bit for bit on social and road graphs, at one worker (every
// drain serial) and at four, for a narrow and a wide bucket width. The
// biclique's second drain makes 520² edge visits, past serialGrain, so at
// four workers it forks into the CAS kernel.
func TestSSSPMatchesBellmanFord(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *property.Graph
	}{
		{"ldbc-50", gen.LDBC(50, 11, 0)},
		{"ldbc-500", gen.LDBC(500, 11, 0)},
		{"ldbc-2000", gen.LDBC(2000, 11, 0)},
		{"road-3000", gen.Road(3000, 11, 0)},
		{"road-20000", gen.Road(20000, 11, 0)},
		{"biclique-520", biclique(520, 520)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vw := tc.g.View()
			want := bellmanFord(vw, 0)
			for _, workers := range []int{1, 4} {
				for _, delta := range []float64{1, 10} {
					got, st := sssp(tc.g, vw, workers, delta, 0)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("workers=%d delta=%g: dist[%d] = %v, want %v", workers, delta, i, got[i], want[i])
						}
					}
					if len(vw.Adj(0)) > 0 && (st.Relaxed == 0 || st.Buckets == 0) {
						t.Errorf("workers=%d delta=%g: stats %+v record no work", workers, delta, st)
					}
				}
			}
		})
	}
}

// TestSSSPPathStats counts the work on a unit-weight path at width 1:
// every vertex settles in its own bucket, and each is relaxed exactly
// once, by its predecessor.
func TestSSSPPathStats(t *testing.T) {
	const n = 100
	g := chain(n)
	vw := g.View()
	for _, workers := range []int{1, 4} {
		dist, st := sssp(g, vw, workers, 1, 0)
		for i, d := range dist {
			if d != float64(i) {
				t.Fatalf("workers=%d: dist[%d] = %v, want %d", workers, i, d, i)
			}
		}
		if st.Buckets != n || st.Relaxed != n-1 {
			t.Errorf("workers=%d: %d buckets, %d relaxations; want %d and %d", workers, st.Buckets, st.Relaxed, n, n-1)
		}
	}
}

func TestSSSPDistLengthMismatchPanics(t *testing.T) {
	g := chain(5)
	e := New(g, g.View(), 1)
	defer func() {
		if recover() == nil {
			t.Error("SSSP with a short dist did not panic")
		}
	}()
	e.SSSP(make([]float64, 4), 1, 0)
}

// TestPlanLeavesKernelsUnchanged runs Traverse and SSSP on a View that
// carries a k-way plan and on the same graph's plain View. The two share
// one index space, so the distances must be equal slot for slot and every
// count the same; the superstep counters stay zero.
func TestPlanLeavesKernelsUnchanged(t *testing.T) {
	g := gen.LDBC(2000, 5, 0)
	plain := g.View()
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			vw := g.ViewWith(property.ViewOpts{Partitions: k})
			if vw.Partitions() == nil {
				t.Fatal("no plan on the View")
			}
			for _, workers := range []int{1, 4} {
				want, got := newDist(plain.Len()), newDist(vw.Len())
				want[0], got[0] = 0, 0
				ws := New(g, plain, workers).Traverse(&Spec{Dist: want}, 0)
				gs := New(g, vw, workers).Traverse(&Spec{Dist: got}, 0)
				if !slices.Equal(got, want) {
					t.Errorf("workers=%d: Traverse levels differ from the plain View's", workers)
				}
				if gs != ws || gs.Supersteps != 0 || gs.BoundarySent != 0 {
					t.Errorf("workers=%d: Traverse stats %+v, plain %+v", workers, gs, ws)
				}
				// Forked drains race on who relaxes first, so only the
				// serial run's counts are compared.
				wd, wst := sssp(g, plain, workers, 4, 0)
				gd, gst := sssp(g, vw, workers, 4, 0)
				if !slices.Equal(gd, wd) || workers == 1 && gst != wst {
					t.Errorf("workers=%d: SSSP differs from the plain View's (%+v vs %+v)", workers, gst, wst)
				}
			}
		})
	}
}

// TestForVerticesVisitsEachOnce covers the engine's vertex map and its
// accessors: every dense index is visited exactly once, across workers
// and pinned to one worker under a tracker.
func TestForVerticesVisitsEachOnce(t *testing.T) {
	g := gen.Road(3000, 3, 0)
	vw := g.View()
	for _, tracked := range []bool{false, true} {
		if tracked {
			g.SetTracker(mem.NewCounting())
		}
		e := New(g, vw, 4)
		if e.View() != vw || e.Graph() != g || e.N() != vw.Len() {
			t.Fatal("accessors do not return what the engine was built over")
		}
		if e.Tracked() != tracked || tracked && e.Workers() != 1 {
			t.Errorf("tracked=%v: Workers %d, Tracked %v", tracked, e.Workers(), e.Tracked())
		}
		hits := make([]int32, e.N())
		e.ForVertices(16, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("tracked=%v: vertex %d visited %d times", tracked, i, h)
			}
		}
	}
}
