package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"

	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/partition"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/trace"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// layerValues collects per-layer metrics by name; a layer the workload
// bypasses is simply absent, and is reported as 0.
type layerValues map[string]stat

func (m layerValues) set(name string, x float64) { m[name] = stat{Median: x, Min: x, Max: x, N: 1} }
func (m layerValues) setSamples(name string, xs []float64) {
	if len(xs) > 0 {
		m[name] = summarize(xs)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// fromSpans derives every metric the traced trials' spans hold: one
// sample per trial for a stage, one per call for a kernel.
func (b *bench) fromSpans(spans []span, m layerValues) {
	in := b.in
	self := selfSeconds(spans)
	var coverage []float64
	for _, s := range pick(spans, "trial") {
		coverage = append(coverage, 100*(1-self[s.ID]/s.seconds()))
	}
	m.setSamples("trace_coverage_pct", coverage)

	if gen := pick(spans, "generate"); len(gen) > 0 {
		m.setSamples("gen.generate_s", durations(gen))
		m.setSamples("gen.alloc_mb", scaled(counts(gen, "alloc_bytes"), 1e-6))
		m.set("gen.medges_per_s", gen[0].Counts["edges"]/1e6/m["gen.generate_s"].Median)
	} else {
		// Generated at set-up only, with one worker.
		m.set("gen.generate_s", in.genSeconds)
		m.set("gen.alloc_mb", in.genAllocMB)
		m.set("gen.medges_per_s", in.genMedges/in.genSeconds)
	}
	if ing := pick(spans, "ingest"); len(ing) > 0 {
		m.setSamples("loader.snap_read_s", durations(ing))
		m.setSamples("loader.alloc_mb", scaled(counts(ing, "alloc_bytes"), 1e-6))
		m.set("loader.snap_mb_per_s", float64(in.bytes)/1e6/m["loader.snap_read_s"].Median)
		m.setSamples("loader.mallocs_per_edge", scaled(counts(ing, "mallocs"), 1/float64(in.want.Edges)))
	}

	view := pick(spans, "view")
	if ord := pick(spans, "order"); len(ord) > 0 {
		m.setSamples("order.cluster_s", durations(ord))
		// The ordered View's own time, kept aside for order.apply_s; the
		// plain property.view_s comes from the probe.
		m.setSamples("view_with_order_s", durations(view))
	} else {
		m.setSamples("property.view_s", durations(view))
		m.setSamples("property.view_alloc_mb", scaled(counts(view, "alloc_bytes"), 1e-6))
	}
	m.setSamples("property.clone_s", durations(pick(spans, "clone")))
	m.setSamples("csr.build_s", durations(pick(spans, "csr")))

	kernels := pick(spans, "kernels")
	m.setSamples("workloads.kernel_alloc_mb", scaled(counts(kernels, "alloc_bytes"), 1e-6))
	if !b.w.simulated {
		m.setSamples("workloads.bfs_s", durations(pick(spans, "BFS#")))
		m.setSamples("workloads.ccomp_s", durations(pick(spans, "CComp#")))
		m.setSamples("workloads.spathdelta_s", durations(pick(spans, "SPathDelta#")))
		m.setSamples("workloads.kcore_s", durations(pick(spans, "kCore#")))
		m.set("workloads.spathdelta_vs_dijkstra", median(b.ex.dijkstraSeconds)/m["workloads.spathdelta_s"].Median)
		return
	}
	// The tracked twins of the CPU kernels count as one layer metric, the
	// sum over a trial; the device kernels get one each.
	var tracked []span
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == "kernels" && !strings.HasPrefix(s.Name, "gpu") {
			tracked = append(tracked, s)
		}
	}
	m.setSamples("workloads.tracked_s", perTrial(tracked, durations(tracked)))
	m.setSamples("perfmon.insts", perTrial(tracked, counts(tracked, "insts")))
	m.setSamples("simt.gpu_bfs_s", durations(pick(spans, "gpuBFS#")))
	m.setSamples("simt.gpu_ccomp_s", durations(pick(spans, "gpuCComp#")))
	m.setSamples("simt.gpu_bfs_device_ms", counts(pick(spans, "gpuBFS#"), "device_ms"))
}

// repeat3 runs f three times and returns the wall times.
func repeat3(f func()) []float64 {
	xs := make([]float64, 3)
	for i := range xs {
		xs[i] = timeIt(f)
	}
	return xs
}

// atOneProc runs f with GOMAXPROCS=1 and restores the setting.
func atOneProc(f func()) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// viewRatios times the plain ViewWith on a warm graph at the run's
// GOMAXPROCS, at one, and through the serial reference implementation,
// three times each, and returns the first set.
func viewRatios(g *property.Graph, m layerValues) []float64 {
	warm := repeat3(func() { g.ViewWith(property.ViewOpts{}) })
	var p1 []float64
	atOneProc(func() { p1 = repeat3(func() { g.ViewWith(property.ViewOpts{}) }) })
	m.setSamples("property.view_p1_s", p1)
	m.setSamples("property.view_ref_s", repeat3(func() { g.ViewReference() }))
	m.set("property.view_speedup", median(p1)/median(warm))
	m.set("property.view_vs_ref", m["property.view_ref_s"].Median/median(warm))
	return warm
}

// engineBFS times engine.New + Traverse with Spec{Dist} only from every
// source, three times over, and returns the per-call wall times with the
// last pass's summed stats and traversed edge records.
func engineBFS(st *state, srcs []property.VertexID) (secs []float64, sum engine.Stats, edges int64) {
	dist := make([]int32, st.vw.Len())
	for rep := 0; rep < 3; rep++ {
		sum, edges = engine.Stats{}, 0
		for _, id := range srcs {
			for i := range dist {
				dist[i] = -1
			}
			src := st.vw.IndexOf(id)
			dist[src] = 0
			var s engine.Stats
			secs = append(secs, timeIt(func() {
				s = engine.New(st.g, st.vw, 0).Traverse(&engine.Spec{Dist: dist}, src)
			}))
			sum.PushRounds += s.PushRounds
			sum.PullRounds += s.PullRounds
			sum.Supersteps += s.Supersteps
			sum.BoundarySent += s.BoundarySent
			for i, d := range dist {
				if d >= 0 {
					edges += int64(st.vw.NbrOff[i+1] - st.vw.NbrOff[i])
				}
			}
		}
	}
	return secs, sum, edges
}

func (b *bench) bfsSources() []property.VertexID {
	var srcs []property.VertexID
	for _, k := range b.w.batch {
		if k.kernel == "BFS" {
			srcs = append(srcs, b.in.sources[k.source])
		}
	}
	return srcs
}

// probeFlat measures the layers of the two flat native workloads that the
// trial spans cannot isolate.
func probeFlat(b *bench, st *state, m layerValues) error {
	if b.w.fromFile {
		probeBuild(st.vw, m)
		m.set("loader.parse_share", 1-m["property.build_s"].Median/m["loader.snap_read_s"].Median)
	}
	viewRatios(st.g, m)

	srcs := b.bfsSources()
	secs, sum, edges := engineBFS(st, srcs)
	m.setSamples("engine.bfs_s", secs)
	lastPass := 0.0
	for _, s := range secs[len(secs)-len(srcs):] {
		lastPass += s
	}
	m.set("engine.bfs_mteps", float64(edges)/1e6/lastPass)
	m.set("engine.bfs_rounds", float64(sum.PushRounds+sum.PullRounds))
	m.set("engine.bfs_pull_rounds", float64(sum.PullRounds))
	var p1 []float64
	atOneProc(func() { p1, _, _ = engineBFS(st, srcs) })
	m.setSamples("engine.bfs_p1_s", p1)
	m.set("engine.bfs_speedup", median(p1)/median(secs))
	m.set("engine.bfs_vs_seq", median(b.ex.seqBFSSeconds)/median(secs))
	m.set("workloads.bfs_writeback_s", m["workloads.bfs_s"].Median-median(secs))
	return nil
}

// probeBuild replays the View's edge records, already parsed, through
// AddVertex/AddEdge into the kind of graph the loader builds: what is left
// of loader.snap_read_s once reading and parsing are taken away.
func probeBuild(vw *property.View, m layerValues) {
	ids := make([]property.VertexID, vw.Len())
	for i, v := range vw.Verts {
		ids[i] = v.ID
	}
	var err error
	secs := timeIt(func() {
		g := property.New(property.Options{Directed: true, TrackInEdges: true})
		for i, src := range ids {
			for k := vw.NbrOff[i]; k < vw.NbrOff[i+1]; k++ {
				dst := ids[vw.Nbr[k]]
				g.AddVertex(src)
				g.AddVertex(dst)
				if e := g.AddEdge(src, dst, vw.NbrW[k]); e != nil {
					err = e
				}
			}
		}
	})
	if err != nil {
		panic(err) // both endpoints were just added
	}
	m.set("property.build_s", secs)
	m.set("property.build_medges_per_s", float64(vw.EdgeTotal())/1e6/secs)
}

func probePartitioned(b *bench, st *state, m layerValues) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := st.g.ViewWith(property.ViewOpts{})
	runtime.ReadMemStats(&m1)
	m.set("property.view_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	m.setSamples("property.view_s", viewRatios(st.g, m))

	n := plain.Len()
	for _, o := range []struct {
		name string
		f    property.OrderFunc
	}{{"order.degree_s", order.Degree}, {"order.hub_s", order.Hub}, {"order.rcm_s", order.RCM}} {
		m.setSamples(o.name, repeat3(func() { o.f(n, plain.NbrOff, plain.Nbr) }))
	}

	vw := st.vw
	plan := vw.Partitions()
	if plan == nil {
		return fmt.Errorf("%s: the View carries no partition plan", b.w.name)
	}
	m.setSamples("partition.plan_s", repeat3(func() {
		partition.New(vw.Len(), vw.NbrOff, vw.Nbr, vw.InOff, vw.InNbr, partitions, partition.EdgeBalanced)
	}))
	m.set("partition.cut_ratio", float64(plan.CutEdges)/float64(vw.EdgeTotal()))
	m.set("partition.imbalance", plan.Imbalance())
	m.set("partition.boundary_verts", float64(plan.BoundaryCount()))
	// What ViewWith{Order, Partitions} costs beyond a plain View, the
	// ordering function and the plan: permuting Verts and the CSR arrays.
	m.set("order.apply_s", m["view_with_order_s"].Median-m["order.cluster_s"].Median-
		m["property.view_s"].Median-m["partition.plan_s"].Median)

	srcs := b.bfsSources()
	secs, sum, _ := engineBFS(st, srcs)
	m.setSamples("engine.part_bfs_s", secs)
	m.set("engine.part_supersteps", float64(sum.Supersteps))
	m.set("engine.part_boundary_sent", float64(sum.BoundarySent))
	flat := &state{g: st.g, vw: st.g.ViewWith(property.ViewOpts{Order: order.Cluster})}
	flatSecs, _, _ := engineBFS(flat, srcs)
	m.set("engine.part_vs_flat", median(secs)/median(flatSecs))
	return nil
}

func probeSim(b *bench, st *state, m layerValues) error {
	w, in := b.w, b.in
	// The seven CPU kernels again under the counting tracker: the framework
	// walk without the cache model, and the number of events it emits.
	null, err := w.prepare(in, nil)
	if err != nil {
		return err
	}
	cpu := *w
	cpu.batch = nil
	for _, k := range w.batch {
		if !isGPU(k.kernel) {
			cpu.batch = append(cpu.batch, k)
		}
	}
	var events uint64
	var results []kernelResult
	m.set("workloads.tracked_null_s", timeIt(func() {
		results = cpu.runKernels(in, null, nil, func() tracker { return eventCounter{&events} })
	}))
	b.checkAll(results)
	m.set("workloads.tracked_mevents_per_s", float64(events)/1e6/m["workloads.tracked_s"].Median)

	// One recorded BFS stream replayed into a fresh Profile: the cache
	// model alone.
	rec, err := w.prepare(in, nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	r, err := trace.NewRecorder(&buf)
	if err != nil {
		return err
	}
	rec.g.SetTracker(r)
	_, err = workloads.BFS(rec.g, workloads.Options{Source: in.sources[0], Seed: in.seed, View: rec.vw})
	rec.g.SetTracker(nil)
	if err != nil {
		return err
	}
	if err := r.Flush(); err != nil {
		return err
	}
	m.set("trace.events", float64(r.Events()))
	var replayErr error
	m.setSamples("perfmon.replay_s", repeat3(func() {
		if _, err := trace.Replay(bytes.NewReader(buf.Bytes()), perfmon.NewProfile(perfmon.DefaultConfig())); err != nil {
			replayErr = err
		}
	}))
	m.set("perfmon.mevents_per_s", float64(r.Events())/1e6/m["perfmon.replay_s"].Median)
	return replayErr
}

// probeResident runs the pipeline's first two stages once more with a
// forced collection after each, to split what stays live between the
// Graph and its View. A graph resident since set-up is what set-up left.
func (b *bench) probeResident(m layerValues) {
	h0 := heapMB()
	g, err := b.w.graph(b.w, b.in, nil)
	if err != nil {
		panic(err) // the same call has succeeded in every trial
	}
	h1 := heapMB()
	vw := g.ViewWith(b.w.viewOpts(nil))
	h2 := heapMB()
	runtime.KeepAlive(vw)
	if g == b.in.graph {
		m.set("property.graph_resident_mb", b.in.heapMB)
	} else {
		m.set("property.graph_resident_mb", h1-h0)
	}
	m.set("property.view_resident_mb", h2-h1)
}
