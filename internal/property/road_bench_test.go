package property_test

import (
	"runtime"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
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
