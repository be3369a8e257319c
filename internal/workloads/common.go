// Package workloads implements the 13 CPU workloads of the GraphBIG suite
// (paper Table 4): graph traversal (BFS, DFS), graph construction/update
// (GCons, GUp, TMorph), graph analytics (SPath, kCore, CComp, GColor, TC,
// Gibbs) and social analysis (DCentr, BCentr).
//
// Every workload runs against the vertex-centric property-graph framework
// and reaches the graph exclusively through framework primitives, the way
// System G applications do. Algorithm state (BFS levels, colors, distances,
// centralities) is stored in vertex properties, and algorithm-local
// structures (queues, heaps, stacks, count arrays) live at simulated
// addresses so the profiler observes the complete footprint.
//
// Each workload has a single implementation serving two modes:
//
//   - native: no tracker installed; parallel workloads fan out across
//     Options.Workers goroutines — these runs feed the wall-clock benches.
//   - instrumented: a mem.Tracker (usually *perfmon.Profile) is installed
//     on the graph; the run is single-threaded and deterministic — these
//     runs regenerate the paper's Figures 1 and 5–9.
package workloads

import (
	"errors"

	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/partition"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Options carries cross-workload parameters.
type Options struct {
	// Workers bounds native parallelism (<=0 selects GOMAXPROCS).
	// Instrumented runs always execute single-threaded.
	Workers int
	// Source is the start vertex for traversal workloads; if absent the
	// first view vertex is used.
	Source property.VertexID
	// Samples sizes sampled work: BCentr source count, GUp deletion count,
	// Gibbs sweep count (each workload documents its default).
	Samples int
	// MaxIters bounds iterative workloads (GColor rounds, Gibbs burn-in).
	MaxIters int
	// Delta, when > 0, overrides SPathDelta's sampled bucket-width
	// heuristic. Final distances do not depend on it (delta-stepping
	// converges to the same shortest-path sums for any width), but
	// wall-clock does: small deltas approach Dijkstra's work-efficiency
	// with little parallelism, large ones approach Bellman-Ford. It
	// arrives from a command-line flag; SPathDelta rejects what cannot be
	// a width (NaN, infinite, negative, below minDelta).
	Delta float64
	// Seed drives workload-internal sampling (GUp victims, Gibbs).
	Seed int64
	// View is an optional pre-built vertex view; one is created if nil.
	// Harness code builds the view before installing the tracker so that
	// snapshot setup is not attributed to the measured region.
	View *property.View
	// Partitions requests k-way partitioned (subgraph-centric) execution
	// for the engine-backed traversal workloads: when > 0 and no View is
	// supplied, the view is built with a k-way partition plan, and the
	// engine runs each partition's kernel locally, exchanging boundary
	// frontiers between supersteps. Results are identical to flat
	// execution; instrumented runs ignore it (the parity event streams
	// stay single-threaded and flat). Ignored when View is supplied —
	// pass a partitioned view instead.
	Partitions int
	// PartitionMode picks the balance target (edge- or vertex-balanced
	// contiguous chunking) for the plan built when Partitions > 0.
	PartitionMode partition.Mode
	// engineSink, when non-nil, collects every engine the run constructs
	// (threaded through the newEngine funnel). The metamorphic suites set
	// it to assert the exchange-buffer phase discipline after each run;
	// production code leaves it nil. Deliberately a caller-owned sink, not
	// a package-level registry or callback, so engines never become
	// reachable from package-level or extern state (which would trip the
	// aliasleak analyzer — correctly, since its escape model is
	// flow-insensitive).
	engineSink *[]*engine.Engine
}

// Result is the outcome of one workload run.
type Result struct {
	Workload string
	// Visited counts the workload's primary unit of work (vertices
	// touched, edges inserted, samples drawn...).
	Visited int64
	// Checksum is an algorithm-defined value used by tests to pin
	// correctness (levels sum, triangle count, component count...).
	Checksum float64
	// Stats carries workload-specific named outputs.
	Stats map[string]float64
}

// ErrEmptyGraph is returned when a workload needs at least one vertex.
var ErrEmptyGraph = errors.New("workloads: empty graph")

func view(g *property.Graph, opt *Options) *property.View {
	if opt.View == nil {
		if opt.Partitions > 0 {
			opt.View = g.ViewWith(property.ViewOpts{
				Partitions:    opt.Partitions,
				PartitionMode: opt.PartitionMode,
			})
		} else {
			opt.View = g.View()
		}
	}
	return opt.View
}

// partitionStats folds the partition plan's shape and the run's boundary
// traffic into a Result's stats. Workloads call it on native partitioned
// runs only; with no plan on the view it is a no-op, so flat Results keep
// their original key set.
func partitionStats(vw *property.View, r *Result, supersteps int, boundarySent int64) {
	plan := vw.Partitions()
	if plan == nil {
		return
	}
	r.Stats["partitions"] = float64(plan.K)
	r.Stats["supersteps"] = float64(supersteps)
	r.Stats["boundary_sent"] = float64(boundarySent)
	r.Stats["cut_edges"] = float64(plan.CutEdges)
	r.Stats["boundary_verts"] = float64(plan.BoundaryCount())
}

// workers resolves effective parallelism: instrumented runs are pinned to
// one worker so the event stream stays deterministic and single-core.
func workers(g *property.Graph, opt Options) int {
	if g.Tracker() != nil {
		return 1
	}
	return opt.Workers
}

// User-code branch sites (framework sites live below SiteUserBase).
const (
	siteVisited uint32 = property.SiteUserBase + iota
	siteQueue
	siteHeap
	siteCompare
	siteIntersect
	siteColor
	sitePeel
	siteRelax
	siteSample
	siteDelete
	siteMorph
	siteLevel
)

// simArr is an algorithm-local array living at a simulated address. All
// index arithmetic is the caller's; simArr only reports accesses.
type simArr struct {
	t    mem.Tracker
	base uint64
	elem uint64
	n    uint64
}

// newSimArr allocates a simulated array of n elements of elemBytes each.
// With no tracker installed it is free and all methods are no-ops.
// Out-of-range indices wrap (ring semantics), so growable structures such
// as stacks can be modeled with a fixed simulated region.
func newSimArr(g *property.Graph, n int, elemBytes int) simArr {
	t := g.Tracker()
	if t == nil {
		return simArr{}
	}
	if n < 1 {
		n = 1
	}
	return simArr{
		t:    t,
		base: g.Arena().Alloc(uint64(n)*uint64(elemBytes), 64),
		elem: uint64(elemBytes),
		n:    uint64(n),
	}
}

func (a simArr) at(i int) uint64 { return a.base + (uint64(i)%a.n)*a.elem }

// Ld records a read of element i.
func (a simArr) Ld(i int) {
	if a.t != nil {
		a.t.Load(a.at(i), property.Size32(a.elem))
	}
}

// St records a write of element i.
func (a simArr) St(i int) {
	if a.t != nil {
		a.t.Store(a.at(i), property.Size32(a.elem))
	}
}

// inst records n user instructions.
func inst(t mem.Tracker, n uint64) {
	if t != nil {
		t.Inst(n)
	}
}

// branch records a user branch outcome.
func branch(t mem.Tracker, site uint32, taken bool) {
	if t != nil {
		t.Branch(site, taken)
	}
}

// pick returns the effective traversal source: opt.Source when present in
// the view, else the view's first vertex.
func pick(vw *property.View, opt Options) (int32, error) {
	if vw.Len() == 0 {
		return 0, ErrEmptyGraph
	}
	if i := vw.IndexOf(opt.Source); i >= 0 {
		return i, nil
	}
	return 0, nil
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
