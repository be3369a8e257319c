// Engine-refactor comparison benches: the pre-engine framework-walk hot
// loops for BFS and CComp are preserved here as test-only code, so
// `go test -bench 'Legacy|NativeBFS$|NativeCComp$'` measures the
// index-resolved engine against the FindVertex-per-edge formulation it
// replaced. Recorded numbers live in results/engine_refactor.json.
package graphbig_test

import (
	"sync/atomic"
	"testing"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// legacyBFS is the seed implementation's native path: a level-synchronous
// frontier where every edge goes through FindVertex (hash lookup) and
// property reads resolve the neighbor's index.
func legacyBFS(g *property.Graph, vw *property.View) int64 {
	n := vw.Len()
	lvl := g.EnsureField(workloads.BFSLevelField)
	idxSlot := g.EnsureField(property.SysIndexField)
	for _, v := range vw.Verts {
		v.SetPropRaw(lvl, -1)
	}
	visited := concurrent.NewBitmap(n)
	cur := concurrent.NewFrontier(n)
	next := concurrent.NewFrontier(n)

	src := vw.Verts[0]
	g.SetProp(src, lvl, 0)
	visited.Set(0)
	cur.Push(0)

	var reached atomic.Int64
	reached.Store(1)
	depth := 0
	for cur.Len() > 0 {
		depth++
		levelVal := float64(depth)
		fr := cur.Slice()
		concurrent.ParallelItems(len(fr), 0, 64, func(k int) {
			u := vw.Verts[fr[k]]
			g.Neighbors(u, func(_ int, e *property.Edge) bool {
				nb := g.FindVertex(e.To)
				if nb == nil {
					return true
				}
				nbIdx := int(g.GetProp(nb, idxSlot))
				if visited.TrySet(nbIdx) {
					g.SetProp(nb, lvl, levelVal)
					next.Push(int32(nbIdx))
					reached.Add(1)
				}
				return true
			})
		})
		cur, next = next, cur
		next.Reset()
	}
	return reached.Load()
}

// legacyCComp is the seed implementation's native path: successive
// framework-walk BFS traversals, one per component.
func legacyCComp(g *property.Graph, vw *property.View) int {
	n := vw.Len()
	lbl := g.EnsureField(workloads.CCompField)
	idxSlot := g.EnsureField(property.SysIndexField)
	for _, v := range vw.Verts {
		v.SetPropRaw(lbl, -1)
	}
	visited := concurrent.NewBitmap(n)
	cur := concurrent.NewFrontier(n)
	next := concurrent.NewFrontier(n)

	comps := 0
	for s := 0; s < n; s++ {
		if visited.Test(s) {
			continue
		}
		label := float64(comps)
		comps++
		visited.Set(s)
		g.SetProp(vw.Verts[s], lbl, label)
		cur.Reset()
		cur.Push(int32(s))
		for cur.Len() > 0 {
			fr := cur.Slice()
			concurrent.ParallelItems(len(fr), 0, 64, func(k int) {
				u := vw.Verts[fr[k]]
				g.Neighbors(u, func(_ int, e *property.Edge) bool {
					nb := g.FindVertex(e.To)
					if nb == nil {
						return true
					}
					nbIdx := int(g.GetProp(nb, idxSlot))
					if visited.TrySet(nbIdx) {
						g.SetProp(nb, lbl, label)
						next.Push(int32(nbIdx))
					}
					return true
				})
			})
			cur, next = next, cur
			next.Reset()
		}
	}
	return comps
}

func BenchmarkLegacyBFS(b *testing.B) {
	g, vw := nativeGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyBFS(g, vw)
	}
	b.SetBytes(int64(g.EdgeCount()) * 2 * 24)
}

func BenchmarkLegacyCComp(b *testing.B) {
	g, vw := nativeGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyCComp(g, vw)
	}
	b.SetBytes(int64(g.EdgeCount()) * 2 * 24)
}

// TestLegacyEngineAgreement pins the engine-backed workloads to the legacy
// loops' results on the benchmark graph, so the Legacy benches above stay
// honest comparisons.
func TestLegacyEngineAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-graph agreement is not a -short test")
	}
	g, vw := nativeGraph(nil)
	reached := legacyBFS(g, vw)
	res, err := workloads.BFS(g, workloads.Options{View: vw})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != reached {
		t.Errorf("engine BFS visited %d, legacy %d", res.Visited, reached)
	}
	comps := legacyCComp(g, vw)
	cres, err := workloads.CComp(g, workloads.Options{View: vw})
	if err != nil {
		t.Fatal(err)
	}
	if int(cres.Checksum) != comps {
		t.Errorf("engine CComp found %v components, legacy %d", cres.Checksum, comps)
	}
}
