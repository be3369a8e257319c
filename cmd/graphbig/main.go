// Command graphbig runs a single GraphBIG workload against a dataset, in
// native (wall-clock) or profiled (simulated-counter) mode, on the CPU or
// the simulated GPU. The profiled, traced and GPU modes run through
// harness.Session, so they print what graphbig-bench archives for the same
// workload, dataset, scale and seed.
//
// Usage:
//
//	graphbig -workload BFS -dataset ldbc -scale 0.02          # native CPU
//	graphbig -workload BFS -dataset ldbc -profile             # CPU counters
//	graphbig -workload CComp -dataset ca-road -gpu            # SIMT device
//	graphbig -workload BFS -trace-out bfs.gbt                 # record events
//	graphbig -trace-in bfs.gbt -scale 0.02                    # replay them
//	graphbig -workload SPath -input mygraph.txt.gz            # file input
//	graphbig -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/harness"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/trace"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// maxWorkers bounds -workers.
const maxWorkers = 1024

func main() {
	wlName := flag.String("workload", "BFS", "workload name (see -list)")
	dataset := flag.String("dataset", "ldbc", "generated dataset name")
	input := flag.String("input", "", "graph file: SNAP or graphbig-gen edge list, plain or gzipped (overrides -dataset)")
	scale := flag.Float64("scale", 0.02, "generation scale")
	seed := flag.Int64("seed", 42, "seed")
	workers := flag.Int("workers", 0, fmt.Sprintf("native worker count in [0, %d] (0 = GOMAXPROCS)", maxWorkers))
	deltaW := flag.Float64("delta", 0, "SPathDelta bucket width override (0 = sampled heuristic)")
	ordering := flag.String("order", "none", "vertex ordering composed into the view (profiled graphs are re-laid-out in it): "+order.FlagUsage())
	profile := flag.Bool("profile", false, "run instrumented on the CPU model")
	gpu := flag.Bool("gpu", false, "run the GPU implementation on the SIMT device")
	samples := flag.Int("samples", 0, "workload sample parameter (BCentr sources, GUp deletions, Gibbs sweeps)")
	traceOut := flag.String("trace-out", "", "record the instrumented event stream to a file (implies -profile semantics)")
	traceIn := flag.String("trace-in", "", "replay a recorded trace through the CPU model of -scale's session and exit")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()

	if *workers < 0 || *workers > maxWorkers {
		// Workers each get a goroutine and SSSP bucket ring, so an
		// unchecked count allocates before any work is done.
		fatal(fmt.Errorf("-workers %d is outside [0, %d]", *workers, maxWorkers))
	}
	var generated []gen.Dataset
	if d, err := gen.ByName(*dataset); err == nil && *input == "" {
		generated = append(generated, d) // an unknown name fails below
	}
	if err := gen.CheckScale(*scale, generated...); err != nil {
		fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Scale, cfg.Seed, cfg.Input = *scale, *seed, *input
	if *profile || *gpu || *traceOut != "" {
		// Only the simulated modes read the session's layout, so only
		// they pay for its relayout in -order's view order.
		cfg.Order = *ordering
	}
	s := harness.NewSession(cfg)

	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		prof := perfmon.NewProfile(s.Cfg.Machine)
		n, err := trace.Replay(f, prof)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d events from %s\n", n, *traceIn)
		printMetrics(os.Stdout, prof.Report())
		return
	}

	if *list {
		fmt.Println("workload   type        category                    gpu  ext  algorithm")
		mark := map[bool]string{false: " ", true: "*"}
		for i, w := range slices.Concat(core.Workloads, core.Extensions) {
			fmt.Printf("%-10s %-11s %-27s %-4s %-4s %s\n", w.Name, w.Type, w.Category, mark[w.GPU()], mark[i >= len(core.Workloads)], w.Algorithm)
		}
		return
	}

	wl, err := core.ByName(*wlName)
	if err != nil {
		fatal(err)
	}
	if *gpu && !wl.GPU() {
		// Fail before the dataset is built, with RunGPU's error.
		_, err := wl.RunGPU(nil, nil)
		fatal(err)
	}
	ord, err := order.ByName(*ordering)
	if err != nil {
		fatal(err)
	}
	opt := workloads.Options{Workers: *workers, Seed: *seed, Samples: *samples, Delta: *deltaW}

	// The instrumented modes run in the session exactly as graphbig-bench
	// does, so they print the numbers its figures archive: the session
	// owns the dataset, its fixed layout (re-laid-out in -order's view
	// order), the scaled caches, the clone a mutating workload runs on and
	// Gibbs's Bayes input.
	var g *property.Graph
	if !wl.NeedsBayes {
		if g, err = s.Graph(*dataset); err != nil {
			fatal(err)
		}
		fmt.Printf("input: %d vertices, %d edges\n", g.VertexCount(), g.EdgeCount())
	}
	switch {
	case *gpu:
		c, err := s.CSR(*dataset)
		if err != nil {
			fatal(err)
		}
		d := simt.NewDevice(s.Cfg.GPU)
		res, err := wl.RunGPU(d, c)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (GPU): value=%g iterations=%d\n", res.Name, res.Value, res.Iterations)
		printDevice(os.Stdout, d)
	case *traceOut != "":
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		rec, err := trace.NewRecorder(f)
		if err != nil {
			fatal(err)
		}
		timed(func() (*workloads.Result, error) { return s.Run(wl, *dataset, opt, rec) })
		if err := rec.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d events to %s\n", rec.Events(), *traceOut)
	case *profile:
		prof := perfmon.NewProfile(s.Cfg.Machine)
		timed(func() (*workloads.Result, error) { return s.Run(wl, *dataset, opt, prof) })
		printMetrics(os.Stdout, prof.Report())
	default:
		// The native run builds its own view: -workers shapes native
		// scheduling only.
		ctx := &core.RunContext{Graph: g, Opt: opt}
		if wl.NeedsBayes {
			ctx.Bayes = s.Bayes()
		} else {
			ctx.Opt.View = g.ViewWith(property.ViewOpts{Workers: *workers, Order: ord})
		}
		timed(func() (*workloads.Result, error) { return wl.Run(ctx) })
	}
}

// timed runs a workload and prints its result line, wall-clock time and
// stats.
func timed(run func() (*workloads.Result, error)) {
	start := time.Now()
	res, err := run()
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

func printMetrics(w io.Writer, m perfmon.Metrics) {
	fmt.Fprintf(w, "insts=%d cycles=%d ipc=%.3f framework=%.1f%%\n",
		m.Insts, m.TotalCycles, m.IPC, m.FrameworkShare*100)
	fmt.Fprintf(w, "mpki: l1d=%.2f l2=%.2f l3=%.2f icache=%.3f\n",
		m.L1DMPKI, m.L2MPKI, m.L3MPKI, m.ICacheMPKI)
	fmt.Fprintf(w, "branch-miss=%.2f%% dtlb-cycles=%.2f%%\n", m.BranchMiss*100, m.DTLBPenaltyPC)
	fmt.Fprintf(w, "breakdown: frontend=%.1f%% badspec=%.1f%% retiring=%.1f%% backend=%.1f%%\n",
		m.Frontend*100, m.BadSpec*100, m.Retiring*100, m.Backend*100)
}

func printDevice(w io.Writer, d *simt.Device) {
	st := d.Stats()
	fmt.Fprintf(w, "BDR=%.3f MDR=%.3f IPC=%.3f read=%.2fGB/s write=%.2fGB/s time=%.3fms\n",
		st.BDR(), st.MDR(), st.IPC(), d.ReadThroughputGBs(), d.WriteThroughputGBs(), d.TimeSeconds()*1e3)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphbig:", err)
	os.Exit(1)
}
