package engine

import (
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/property"
)

// benchGraph is shared across the engine benchmarks: one LDBC graph at a
// size where frontier costs dominate setup but a full -benchtime 1x sweep
// (the CI bench-smoke configuration) stays under a few seconds.
var benchState struct {
	g  *property.Graph
	vw map[string]*property.View // keyed by ordering name
}

func benchGraph(b *testing.B) (*property.Graph, map[string]*property.View) {
	b.Helper()
	if benchState.g == nil {
		g := gen.LDBC(20000, 42, 0)
		views := make(map[string]*property.View, len(order.Names))
		for _, name := range order.Names {
			ord, err := order.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			views[name] = g.ViewWith(property.ViewOpts{Order: ord})
		}
		benchState.g = g
		benchState.vw = views
	}
	return benchState.g, benchState.vw
}

// benchTraverse runs one full direction-optimizing traversal per iteration
// over the view composed with the named ordering. The source is pinned by
// vertex ID via the baseline view so every ordering traverses the same
// logical graph from the same root.
func benchTraverse(b *testing.B, ordering string) {
	g, views := benchGraph(b)
	vw := views[ordering]
	src := vw.IndexOf(views["none"].Verts[0].ID)
	e := New(g, vw, 0)
	dist := make([]int32, e.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dist {
			dist[j] = -1
		}
		dist[src] = 0
		st := e.Traverse(&Spec{Dist: dist}, src)
		if st.Reached < 1 {
			b.Fatalf("traversal reached %d vertices", st.Reached)
		}
	}
}

func BenchmarkTraverseNone(b *testing.B)   { benchTraverse(b, "none") }
func BenchmarkTraverseDegree(b *testing.B) { benchTraverse(b, "degree") }
func BenchmarkTraverseHub(b *testing.B)    { benchTraverse(b, "hub") }
func BenchmarkTraverseRCM(b *testing.B)    { benchTraverse(b, "rcm") }

// BenchmarkTraversePushOnly isolates the push path (no direction switch),
// the configuration the pull-exit scratch reuse does not reach.
func BenchmarkTraversePushOnly(b *testing.B) {
	g, views := benchGraph(b)
	vw := views["none"]
	e := New(g, vw, 0)
	dist := make([]int32, e.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dist {
			dist[j] = -1
		}
		dist[0] = 0
		e.Traverse(&Spec{Dist: dist, NoPull: true}, 0)
	}
}

// BenchmarkTraverseRoad is the many-narrow-rounds regime LDBC never
// enters: ca-road at 0.05 of the paper scale (95 k vertices, a BFS of
// several hundred rounds of a few hundred vertices each), at one worker
// and at GOMAXPROCS. rounds and serial-rounds say how many rounds one
// traversal took and how many of them stayed below the engine's floor.
func BenchmarkTraverseRoad(b *testing.B) {
	g := gen.Road(95_000, 42, 0)
	vw := g.View()
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			e := New(g, vw, bc.workers)
			dist := make([]int32, e.N())
			var st Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range dist {
					dist[j] = -1
				}
				dist[0] = 0
				st = e.Traverse(&Spec{Dist: dist}, 0)
			}
			if st.Reached < int64(e.N())/2 {
				b.Fatalf("traversal reached %d of %d vertices", st.Reached, e.N())
			}
			b.ReportMetric(float64(st.PushRounds+st.PullRounds), "rounds")
			b.ReportMetric(float64(st.SerialRounds), "serial-rounds")
		})
	}
}

// View construction: the serial seed implementation vs the parallel
// pipeline, the pair the bench JSON's view_build record compares.
func BenchmarkViewBuildReference(b *testing.B) {
	g, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ViewReference()
	}
}

func BenchmarkViewBuildParallel(b *testing.B) {
	g, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ViewWith(property.ViewOpts{})
	}
}
