package property_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// BenchmarkBuildViewRoad is the ready path of the benchmark's traverse-road
// workload at a fifth of its size: Generate (property.Bulk behind it), then
// ViewWith. CI's bench-smoke runs it once per push with allocation
// reporting on; alloc-B/record is everything the two allocated over the
// edge records the View holds, so a record, a vertex slab or a View table
// that grows back shows there whatever the graph's size, and B/vertex is
// the live heap the last Graph and its View keep, over its vertices.
func BenchmarkBuildViewRoad(b *testing.B) {
	road, err := gen.ByName("ca-road")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var records int64
	var g *property.Graph
	var vw *property.View
	for i := 0; i < b.N; i++ {
		g = road.Generate(0.05, 42, 0)
		vw = g.ViewWith(property.ViewOpts{})
		records += vw.EdgeTotal()
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(records), "alloc-B/record")
	runtime.GC()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/float64(g.VertexCount()), "B/vertex")
	runtime.KeepAlive(vw)
}

// BenchmarkSetColumn is the column writer on the road graph at the same
// size: an int32 result array written into one field through an ID-ordered
// View, whose segments are about one per chunk, and through a randomly
// permuted one, about one per vertex. ns/vertex is the cost of handing a
// kernel's result back; the field is written before timing starts, so no
// column is allocated inside the loop.
func BenchmarkSetColumn(b *testing.B) {
	road, err := gen.ByName("ca-road")
	if err != nil {
		b.Fatal(err)
	}
	g := road.Generate(0.05, 42, 0)
	shuffle := func(n int, _, _ []int32) []int32 {
		perm := make([]int32, n)
		for i, p := range rand.New(rand.NewPCG(42, 1)).Perm(n) {
			perm[i] = narrow.Index32(p)
		}
		return perm
	}
	for _, c := range []struct {
		name string
		opts property.ViewOpts
	}{
		{"id-order", property.ViewOpts{}},
		{"permuted", property.ViewOpts{Order: shuffle}},
	} {
		b.Run(c.name, func(b *testing.B) {
			vw := g.ViewWith(c.opts)
			slot := g.EnsureField("bench.level")
			vals := make([]int32, vw.Len())
			for i := range vals {
				vals[i] = narrow.Index32(i % 977)
			}
			property.SetColumn(vw, slot, vals)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				property.SetColumn(vw, slot, vals)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vw.Len()), "ns/vertex")
		})
	}
}
