package perfmon

import (
	"testing"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// reportSink keeps the benchmarks' reports live.
var reportSink Metrics

// The per-call benchmarks take the Report inside the timed region: Load
// and Store only queue an access, and the data hierarchy may drain it on
// another goroutine, so without the Report they would time the queue
// alone.

func BenchmarkProfileLoadStream(b *testing.B) {
	p := NewProfile(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(1<<20+uint64(i)*8, 8)
	}
	reportSink = p.Report()
}

func BenchmarkProfileLoadRandom(b *testing.B) {
	p := NewProfile(DefaultConfig())
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1
		p.Load(1<<20+(x>>16)%(512<<20), 8)
	}
	reportSink = p.Report()
}

func BenchmarkProfileBranch(b *testing.B) {
	p := NewProfile(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Branch(uint32(i%7), i%3 == 0)
	}
	reportSink = p.Report()
}

// BenchmarkProfileBatch runs the seven characterize-sim CPU kernels live,
// in its batch order, each under a fresh default Profile whose Report is
// taken, on a clone of LDBC at scale 0.008, seed 42 (characterize-sim's
// full scale): the framework walk and the whole model, which is what that
// workload's kernel_s spends on the CPU kernels. The clone and its View
// are made outside the timed region. Run it at -cpu 1,2 to compare the
// data side draining on the caller with it draining on a second core.
func BenchmarkProfileBatch(b *testing.B) {
	d, err := gen.ByName("ldbc")
	if err != nil {
		b.Fatal(err)
	}
	base := d.Generate(0.008, 42, 1)
	for range b.N {
		b.StopTimer()
		g := property.Clone(base)
		vw := g.View()
		b.StartTimer()
		for _, name := range goldenKernels {
			wl, err := core.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			p := NewProfile(DefaultConfig())
			g.SetTracker(p)
			_, err = wl.Run(&core.RunContext{Graph: g, Opt: workloads.Options{Seed: 42, View: vw}})
			g.SetTracker(nil)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			reportSink = p.Report()
		}
	}
}
