// Native wall-clock benchmarks for the workloads themselves: the only
// wall-clock entry point for the workloads the repository benchmark
// (benchmark/) does not run. The paper's tables and figures, and the
// design-choice ablations, are regenerated by cmd/graphbig-bench (see
// DESIGN.md §4).
package graphbig_test

import (
	"sync"
	"testing"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

var (
	natOnce  sync.Once
	natGraph *property.Graph
	natView  *property.View
)

func nativeGraph(b *testing.B) (*property.Graph, *property.View) {
	natOnce.Do(func() {
		natGraph = gen.LDBC(20000, 42, 0)
		natView = natGraph.View()
	})
	return natGraph, natView
}

func benchNative(b *testing.B, name string, opt workloads.Options) {
	g, vw := nativeGraph(b)
	wl, err := core.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	opt.View = vw
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		input := g
		o := opt
		if wl.Mutates {
			b.StopTimer()
			input = property.Clone(g)
			o.View = nil
			b.StartTimer()
		}
		if _, err := wl.Run(&core.RunContext{Graph: input, Opt: o}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(g.EdgeCount()) * 2 * 24) // edge records touched
}

func BenchmarkNativeBFS(b *testing.B)    { benchNative(b, "BFS", workloads.Options{}) }
func BenchmarkNativeDFS(b *testing.B)    { benchNative(b, "DFS", workloads.Options{}) }
func BenchmarkNativeSPath(b *testing.B)  { benchNative(b, "SPath", workloads.Options{}) }
func BenchmarkNativeKCore(b *testing.B)  { benchNative(b, "kCore", workloads.Options{}) }
func BenchmarkNativeCComp(b *testing.B)  { benchNative(b, "CComp", workloads.Options{}) }
func BenchmarkNativeGColor(b *testing.B) { benchNative(b, "GColor", workloads.Options{}) }
func BenchmarkNativeTC(b *testing.B)     { benchNative(b, "TC", workloads.Options{}) }
func BenchmarkNativeDCentr(b *testing.B) { benchNative(b, "DCentr", workloads.Options{}) }
func BenchmarkNativeBCentr(b *testing.B) {
	benchNative(b, "BCentr", workloads.Options{Samples: 4})
}
func BenchmarkNativeGCons(b *testing.B) { benchNative(b, "GCons", workloads.Options{}) }
func BenchmarkNativeGUp(b *testing.B)   { benchNative(b, "GUp", workloads.Options{}) }
func BenchmarkNativeTMorph(b *testing.B) {
	// TMorph builds a moral graph; run on the smaller road network to keep
	// iterations short.
	g := gen.Road(10000, 42, 0)
	vw := g.View()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.TMorph(g, workloads.Options{View: vw}); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkNativeGibbs(b *testing.B) {
	net := bayes.MUNIN()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workloads.Gibbs(net, workloads.Options{Samples: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension workloads (beyond Table 4).
func BenchmarkNativeBFSDirOpt(b *testing.B) {
	benchNative(b, "BFSDirOpt", workloads.Options{})
}
func BenchmarkNativeSPathDelta(b *testing.B) {
	benchNative(b, "SPathDelta", workloads.Options{})
}
