// Command graphbig runs a single GraphBIG workload against a dataset, in
// native (wall-clock) or profiled (simulated-counter) mode, on the CPU or
// the simulated GPU.
//
// Usage:
//
//	graphbig -workload BFS -dataset ldbc -scale 0.02          # native CPU
//	graphbig -workload BFS -dataset ldbc -profile             # CPU counters
//	graphbig -workload CComp -dataset ca-road -gpu            # SIMT device
//	graphbig -workload SPath -input mygraph.txt.gz            # file input
//	graphbig -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/harness"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/partition"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/trace"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

func main() {
	wlName := flag.String("workload", "BFS", "workload name (see -list)")
	dataset := flag.String("dataset", "ldbc", "generated dataset name")
	input := flag.String("input", "", "graph file: SNAP or graphbig-gen edge list, plain or gzipped (overrides -dataset)")
	scale := flag.Float64("scale", 0.02, "generation scale")
	seed := flag.Int64("seed", 42, "seed")
	workers := flag.Int("workers", 0, "native worker count (0 = GOMAXPROCS)")
	deltaW := flag.Float64("delta", 0, "SPathDelta bucket width override (0 = sampled heuristic)")
	ordering := flag.String("order", "none", "vertex ordering composed into the view: "+order.FlagUsage())
	partitions := flag.Int("partitions", 0, "k-way partitioned (subgraph-centric) native execution; 0 = flat engine")
	partitionBy := flag.String("partition-by", "edge", "partition balance target: edge|vertex")
	profile := flag.Bool("profile", false, "run instrumented on the CPU model")
	gpu := flag.Bool("gpu", false, "run the GPU implementation on the SIMT device")
	samples := flag.Int("samples", 0, "workload sample parameter (BCentr sources, GUp deletions, Gibbs sweeps)")
	traceOut := flag.String("trace-out", "", "record the instrumented event stream to a file (implies -profile semantics)")
	traceIn := flag.String("trace-in", "", "replay a recorded trace through the CPU model and exit")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()

	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		prof := perfmon.NewProfile(perfmon.DefaultConfig())
		n, err := trace.Replay(f, prof)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d events from %s\n", n, *traceIn)
		printMetrics(prof.Report())
		return
	}

	if *list {
		fmt.Println("workload  type        category                    gpu  algorithm")
		for _, w := range core.Workloads {
			gpuMark := " "
			if w.GPU {
				gpuMark = "*"
			}
			fmt.Printf("%-9s %-11s %-27s %-4s %s\n", w.Name, w.Type, w.Category, gpuMark, w.Algorithm)
		}
		return
	}

	wl, err := core.ByName(*wlName)
	if err != nil {
		fatal(err)
	}
	ord, err := order.ByName(*ordering)
	if err != nil {
		fatal(err)
	}
	pmode, err := partition.ModeByName(*partitionBy)
	if err != nil {
		fatal(err)
	}
	ctx := &core.RunContext{Opt: workloads.Options{Workers: *workers, Seed: *seed, Samples: *samples, Delta: *deltaW}}

	if wl.NeedsBayes {
		s := harness.NewSession(harness.DefaultConfig())
		ctx.Bayes = s.Bayes()
		if *profile {
			prof := perfmon.NewProfile(perfmon.DefaultConfig())
			ctx.Bayes.SetTracker(prof)
			runCPU(wl, ctx)
			printMetrics(prof.Report())
			return
		}
		runCPU(wl, ctx)
		return
	}

	var g *property.Graph
	if *input != "" {
		g, err = loader.Load(*input)
		if err != nil {
			fatal(err)
		}
	} else {
		d, err := gen.ByName(*dataset)
		if err != nil {
			fatal(err)
		}
		g = d.Generate(*scale, *seed, *workers)
	}
	fmt.Printf("input: %d vertices, %d edges\n", g.VertexCount(), g.EdgeCount())

	// makeView composes the requested ordering and partition plan into the
	// dense view. For instrumented runs a non-default ordering also
	// re-lays-out the simulated addresses (property.Relayout) so the cache
	// model sees the locality the ordering produces; "none" keeps the seed
	// layout and byte-identical traces. The partition plan only changes
	// native engine scheduling — instrumented runs ignore it.
	makeView := func(relayout bool) *property.View {
		vw := g.ViewWith(property.ViewOpts{
			Workers:       *workers,
			Order:         ord,
			Partitions:    *partitions,
			PartitionMode: pmode,
		})
		if relayout && ord != nil {
			property.Relayout(g, vw)
		}
		return vw
	}

	if *gpu {
		vw := makeView(false)
		c := csr.FromProperty(g, vw)
		d := simt.NewDevice(simt.KeplerConfig())
		res, err := wl.RunGPU(d, c)
		if err != nil {
			fatal(err)
		}
		st := d.Stats()
		fmt.Printf("%s (GPU): value=%g iterations=%d\n", res.Name, res.Value, res.Iterations)
		fmt.Printf("BDR=%.3f MDR=%.3f IPC=%.3f read=%.2fGB/s write=%.2fGB/s time=%.3fms\n",
			st.BDR(), st.MDR(), st.IPC(), d.ReadThroughputGBs(), d.WriteThroughputGBs(), d.TimeSeconds()*1e3)
		return
	}

	ctx.Graph = g
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		rec, err := trace.NewRecorder(f)
		if err != nil {
			fatal(err)
		}
		ctx.Opt.View = makeView(true)
		g.SetTracker(rec)
		runCPU(wl, ctx)
		g.SetTracker(nil)
		if err := rec.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d events to %s\n", rec.Events(), *traceOut)
		return
	}
	if *profile {
		ctx.Opt.View = makeView(true)
		prof := perfmon.NewProfile(perfmon.DefaultConfig())
		g.SetTracker(prof)
		runCPU(wl, ctx)
		printMetrics(prof.Report())
		return
	}
	ctx.Opt.View = makeView(false)
	runCPU(wl, ctx)
}

func runCPU(wl core.Workload, ctx *core.RunContext) {
	start := time.Now()
	res, err := wl.Run(ctx)
	if err != nil {
		fatal(err)
	}
	el := time.Since(start)
	fmt.Printf("%s: visited=%d checksum=%g elapsed=%s\n", res.Workload, res.Visited, res.Checksum, el.Round(time.Microsecond))
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s=%g\n", k, res.Stats[k])
	}
}

func printMetrics(m perfmon.Metrics) {
	fmt.Printf("insts=%d cycles=%d ipc=%.3f framework=%.1f%%\n",
		m.Insts, m.TotalCycles, m.IPC, m.FrameworkShare*100)
	fmt.Printf("mpki: l1d=%.2f l2=%.2f l3=%.2f icache=%.3f\n",
		m.L1DMPKI, m.L2MPKI, m.L3MPKI, m.ICacheMPKI)
	fmt.Printf("branch-miss=%.2f%% dtlb-cycles=%.2f%%\n", m.BranchMiss*100, m.DTLBPenaltyPC)
	fmt.Printf("breakdown: frontend=%.1f%% badspec=%.1f%% retiring=%.1f%% backend=%.1f%%\n",
		m.Frontend*100, m.BadSpec*100, m.Retiring*100, m.Backend*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphbig:", err)
	os.Exit(1)
}
