package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// scales are the generator scales (fractions of the paper's dataset
// sizes). They are constants of the benchmark, sized for 2 cores so that
// a cold trial takes about a second and a 20 s run holds at least nine.
type scales struct {
	Social float64 `json:"social"` // LDBC: ingest-social, partitioned-social
	Road   float64 `json:"road"`   // ca-road: traverse-road
	Sim    float64 `json:"sim"`    // LDBC: characterize-sim
}

var (
	fullScales  = scales{Social: 0.04, Road: 0.25, Sim: 0.008}
	quickScales = scales{Social: 0.002, Road: 0.005, Sim: 0.0004}
)

// partitions is fixed, not derived from the core count, so cut and
// message counts repeat on any machine.
const partitions = 4

// inputs is what set-up hands to the trials: a pure function of the seed.
type inputs struct {
	seed    int64
	scale   float64
	graph   *property.Graph // resident input, nil when trials ingest or generate
	path    string          // SNAP file, ingest-social only
	bytes   int64
	sources []property.VertexID
	// want is the input's fingerprint: Edges and Set from the generated
	// graph, Seq from a View of it built with one worker.
	want     fingerprint
	vertices int
	heapMB   float64 // live heap once set-up is done: the resident graph, if any

	// The set-up's own Generate call (one worker), timed: the gen.* layer
	// metrics of every workload that does not generate inside its trials.
	genSeconds, genAllocMB, genMedges float64
}

// state is a trial's pipeline at the ready point.
type state struct {
	g   *property.Graph
	vw  *property.View
	csr *csr.Graph
}

// kernelRun is one entry of a workload's fixed kernel batch.
type kernelRun struct {
	kernel string
	source int // index into inputs.sources
}

// kernelResult is one kernel run's outcome, kept for verification.
type kernelResult struct {
	name     string // "<kernel>#<i>", also the span name
	kernel   string
	src      property.VertexID
	visited  int64
	checksum float64
	// Vertices and logical edges the run removed from the graph (GUp).
	dV, dE int
	err    error
}

type workload struct {
	name, why string
	dataset   string
	scale     func(scales) float64
	// fromFile has set-up write the dataset out as the SNAP file the
	// trials ingest.
	fromFile bool
	// graph is the first stage of a trial: it ingests, generates, clones
	// or simply hands over the graph the rest of the pipeline runs on.
	graph    func(w *workload, in *inputs, tr *tracer) (*property.Graph, error)
	viewOpts func(tr *tracer) property.ViewOpts
	// keepGraph leaves the generated graph resident as the trials' input.
	keepGraph bool
	// simulated marks the characterization workload: CPU kernels run
	// instrumented under a tracker, the GPU ones on a CSR built at the
	// ready point, and because the batch mutates its graph the kernel
	// phase prepares a fresh state (untimed) before every repetition.
	simulated bool
	batch     []kernelRun
	probes    func(b *bench, st *state, m layerValues) error
}

func repeatKernel(kernel string, sources ...int) []kernelRun {
	var ks []kernelRun
	for _, s := range sources {
		ks = append(ks, kernelRun{kernel, s})
	}
	return ks
}

func concat(parts ...[]kernelRun) []kernelRun {
	var ks []kernelRun
	for _, p := range parts {
		ks = append(ks, p...)
	}
	return ks
}

var flatBatch = concat(
	repeatKernel("BFS", 0, 1, 2, 3, 4, 5, 6, 7),
	repeatKernel("SPathDelta", 0, 4),
	repeatKernel("CComp", 0),
	repeatKernel("kCore", 0),
)

func plainView(*tracer) property.ViewOpts { return property.ViewOpts{} }

var benchWorkloads = []*workload{
	{
		name:     "ingest-social",
		why:      "SNAP file through loader and single-threaded graph build; gen, order, partition bypassed; low-diameter pull-round kernels",
		dataset:  "ldbc",
		scale:    func(s scales) float64 { return s.Social },
		fromFile: true,
		graph:    ingestGraph,
		viewOpts: plainView,
		batch:    flatBatch,
		probes:   probeFlat,
	},
	{
		name:     "traverse-road",
		why:      "road grid generated in-process, vertex-dominated View, high-diameter push-only kernels; loader bypassed; opposite frontier regime to ingest-social",
		dataset:  "ca-road",
		scale:    func(s scales) float64 { return s.Road },
		graph:    generateGraph,
		viewOpts: plainView,
		batch:    flatBatch,
		probes:   probeFlat,
	},
	{
		name:    "partitioned-social",
		why:     "resident graph through order.Cluster, a 4-way plan, mailboxes and PartitionedSSSP; the only workload on the subgraph-centric engine",
		dataset: "ldbc",
		scale:   func(s scales) float64 { return s.Social },
		graph:   residentGraph,
		viewOpts: func(tr *tracer) property.ViewOpts {
			return property.ViewOpts{Order: tr.wrapOrder(order.Cluster), Partitions: partitions}
		},
		keepGraph: true,
		batch: concat(
			repeatKernel("BFS", 0, 1, 2, 3),
			repeatKernel("SPathDelta", 0),
			repeatKernel("CComp", 0),
		),
		probes: probePartitioned,
	},
	{
		name:      "characterize-sim",
		why:       "seven workloads instrumented under perfmon plus GPU BFS and CComp on the SIMT device: tracked twins, framework primitives, graph writes; native engine bypassed",
		dataset:   "ldbc",
		scale:     func(s scales) float64 { return s.Sim },
		graph:     cloneGraph,
		viewOpts:  plainView,
		keepGraph: true,
		simulated: true,
		// GUp deletes vertices, so it runs last of the CPU kernels: the
		// others see the View taken at the ready point still valid.
		batch: concat(
			repeatKernel("BFS", 0), repeatKernel("SPath", 0), repeatKernel("kCore", 0),
			repeatKernel("CComp", 0), repeatKernel("DCentr", 0), repeatKernel("GCons", 0),
			repeatKernel("GUp", 0), repeatKernel("gpuBFS", 0), repeatKernel("gpuCComp", 0),
		),
		probes: probeSim,
	},
}

func workloadByName(name string) *workload {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generateInput is the timed part of set-up: the dataset generated with
// one worker, so it is a pure function of the seed, and where the trials
// ingest, written out as the file they read.
func (w *workload) generateInput(seed int64, sc scales, dir string) (*inputs, *property.Graph, error) {
	d, err := gen.ByName(w.dataset)
	if err != nil {
		return nil, nil, err
	}
	in := &inputs{seed: seed, scale: w.scale(sc)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var g *property.Graph
	in.genSeconds = timeIt(func() { g = d.Generate(in.scale, seed, 1) })
	runtime.ReadMemStats(&m1)
	in.genAllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	in.genMedges = float64(g.EdgeCount()) / 1e6
	if w.fromFile {
		in.path = filepath.Join(dir, "social.snap")
		if in.bytes, err = writeSNAP(in.path, g); err != nil {
			return nil, nil, err
		}
	}
	return in, g, nil
}

// finishSetup is the untimed part: both fingerprints and the traversal
// sources, from a reference View built with one worker under the
// workload's own ordering and plan.
func (w *workload) finishSetup(in *inputs, g *property.Graph) error {
	in.want = graphFingerprint(g)
	in.vertices = g.VertexCount()
	opts := w.viewOpts(nil)
	opts.Workers = 1
	ref := g.ViewWith(opts)
	refFP := viewFingerprint(ref)
	if !refFP.sameInput(in.want) {
		return fmt.Errorf("setup: reference View holds %d edge records (set %x), graph holds %d (set %x)",
			refFP.Edges, refFP.Set, in.want.Edges, in.want.Set)
	}
	in.want.Seq = refFP.Seq
	nSources := 0
	for _, k := range w.batch {
		nSources = max(nSources, k.source+1)
	}
	in.sources = pickSources(ref, nSources)
	if w.keepGraph {
		in.graph = g
	}
	return nil
}

// pickSources spreads k traversal sources evenly over the vertex range,
// moving each forward to the next vertex of the largest component so
// every seed's traversals cover the bulk of the graph.
func pickSources(vw *property.View, k int) []property.VertexID {
	root, _ := unionFind(vw.NbrOff, vw.Nbr)
	size := make([]int32, len(root))
	giant := int32(0)
	for _, r := range root {
		size[r]++
		if size[r] > size[giant] {
			giant = r
		}
	}
	n := len(root)
	srcs := make([]property.VertexID, 0, k)
	for i := 0; i < k; i++ {
		at := (2*i + 1) * n / (2 * k)
		for root[at] != giant {
			if at++; at == n {
				at = 0
			}
		}
		srcs = append(srcs, vw.Verts[at].ID)
	}
	return srcs
}

// writeSNAP writes every out-record of g as a `src dst weight` line, in
// vertex and adjacency order: an undirected graph's mirrored records give
// both directions, which is how SNAP ships undirected datasets.
func writeSNAP(path string, g *property.Graph) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "# graphbig benchmark input: %d vertices, %d edges, both directions\n", g.VertexCount(), g.EdgeCount())
	var line []byte
	g.ForEachVertex(func(v *property.Vertex) {
		for i := range v.Out {
			line = strconv.AppendUint(line[:0], uint64(v.ID), 10)
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(v.Out[i].To), 10)
			line = append(line, ' ')
			line = strconv.AppendFloat(line, v.Out[i].Weight, 'g', -1, 64)
			line = append(line, '\n')
			bw.Write(line) // a failed write surfaces at Flush
		}
	})
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), f.Close()
}

func ingestGraph(w *workload, in *inputs, tr *tracer) (*property.Graph, error) {
	sp := tr.begin("ingest")
	g, err := loader.LoadSNAP(in.path)
	tr.end(sp, count{"bytes", float64(in.bytes)}, count{"lines", float64(in.want.Edges)})
	return g, err
}

func generateGraph(w *workload, in *inputs, tr *tracer) (*property.Graph, error) {
	d, err := gen.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("generate")
	g := d.Generate(in.scale, in.seed, 0)
	tr.end(sp, count{"edges", float64(g.EdgeCount())})
	return g, nil
}

func residentGraph(w *workload, in *inputs, tr *tracer) (*property.Graph, error) {
	return in.graph, nil
}

// cloneGraph gives every trial its own copy with its own simulated
// address arena: GUp deletes vertices.
func cloneGraph(w *workload, in *inputs, tr *tracer) (*property.Graph, error) {
	sp := tr.begin("clone")
	g := property.Clone(in.graph)
	tr.end(sp)
	return g, nil
}

// prepare runs a trial up to the ready point: the graph, its View, and
// for the simulated workload the CSR the SIMT device reads.
func (w *workload) prepare(in *inputs, tr *tracer) (*state, error) {
	g, err := w.graph(w, in, tr)
	if err != nil {
		return nil, err
	}
	st := &state{g: g}
	sp := tr.begin("view")
	st.vw = g.ViewWith(w.viewOpts(tr))
	tr.end(sp, count{"vertices", float64(st.vw.Len())}, count{"edge_records", float64(st.vw.EdgeTotal())})
	if w.simulated {
		sp = tr.begin("csr")
		st.csr = csr.FromProperty(g, st.vw)
		tr.end(sp)
	}
	return st, nil
}

var nativeKernels = map[string]func(*property.Graph, workloads.Options) (*workloads.Result, error){
	"BFS":        workloads.BFS,
	"SPathDelta": workloads.SPathDelta,
	"CComp":      workloads.CComp,
	"kCore":      workloads.KCore,
}

func isGPU(kernel string) bool { return kernel == "gpuBFS" || kernel == "gpuCComp" }

// runKernel runs one entry of the batch on a ready state. newTracker makes
// the tracker a simulated workload's CPU kernel runs under.
func (w *workload) runKernel(in *inputs, st *state, k kernelRun, newTracker func() tracker) (r kernelResult, counts []count) {
	r = kernelResult{kernel: k.kernel, src: in.sources[k.source]}
	opt := workloads.Options{Source: r.src, Seed: in.seed, View: st.vw}
	switch {
	case !w.simulated:
		res, err := nativeKernels[k.kernel](st.g, opt)
		if r.err = err; err == nil {
			r.visited, r.checksum = res.Visited, res.Checksum
		}
	case isGPU(k.kernel):
		wl, err := core.ByName(k.kernel[len("gpu"):])
		if r.err = err; err != nil {
			break
		}
		d := simt.NewDevice(simt.KeplerConfig())
		res, err := wl.RunGPU(d, st.csr)
		if r.err = err; err == nil {
			r.checksum = res.Value
			counts = append(counts, count{"device_ms", d.TimeSeconds() * 1e3})
		}
	default:
		wl, err := core.ByName(k.kernel)
		if r.err = err; err != nil {
			break
		}
		v0, e0 := st.g.VertexCount(), st.g.EdgeCount()
		t := newTracker()
		st.g.SetTracker(t)
		res, err := wl.Run(&core.RunContext{Graph: st.g, Opt: opt})
		st.g.SetTracker(nil)
		if r.err = err; err == nil {
			r.visited, r.checksum = res.Visited, res.Checksum
			r.dV, r.dE = v0-st.g.VertexCount(), e0-st.g.EdgeCount()
			counts = append(counts, count{"insts", float64(t.finish())})
		}
	}
	return r, counts
}

// runKernels runs the workload's fixed batch, one span per run under a
// "kernels" span.
func (w *workload) runKernels(in *inputs, st *state, tr *tracer, newTracker func() tracker) []kernelResult {
	results := make([]kernelResult, 0, len(w.batch))
	all := tr.begin("kernels")
	seen := map[string]int{}
	for _, k := range w.batch {
		name := k.kernel + "#" + strconv.Itoa(seen[k.kernel])
		seen[k.kernel]++
		sp := tr.begin(name)
		r, counts := w.runKernel(in, st, k, newTracker)
		tr.end(sp, counts...)
		r.name = name
		results = append(results, r)
	}
	tr.end(all)
	return results
}

// tracker is a mem.Tracker whose run can be closed out; finish returns
// the retired instructions (or events) it saw.
type tracker interface {
	mem.Tracker
	finish() uint64
}

// profileTracker is the real thing: a perfmon.Profile whose Report (the
// cycle model) is computed as part of the run, as graphbig -profile does.
type profileTracker struct{ *perfmon.Profile }

func newProfileTracker() tracker {
	return profileTracker{perfmon.NewProfile(perfmon.DefaultConfig())}
}

func (p profileTracker) finish() uint64 { return p.Report().Insts }

// eventCounter is the nearly free tracker: the framework walk without the
// cache model. It counts the events a Profile would have had to consume
// into a total shared by all the runs of a batch.
type eventCounter struct{ total *uint64 }

func (c eventCounter) Load(uint64, uint32)  { *c.total++ }
func (c eventCounter) Store(uint64, uint32) { *c.total++ }
func (c eventCounter) Inst(uint64)          { *c.total++ }
func (c eventCounter) Branch(uint32, bool)  { *c.total++ }
func (c eventCounter) Enter(mem.Class)      { *c.total++ }
func (c eventCounter) Exit()                { *c.total++ }
func (c eventCounter) finish() uint64       { return *c.total }
