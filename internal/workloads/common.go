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
// Every workload runs in two modes:
//
//   - native: no tracker installed; parallel workloads fan out across
//     Options.Workers goroutines — these runs feed the wall-clock benches.
//   - instrumented: a mem.Tracker (usually *perfmon.Profile) is installed
//     on the graph; the run is single-threaded and deterministic — these
//     runs regenerate the paper's Figures 1 and 5–9.
//
// Most workloads serve both modes from one function; kCore and BCentr
// branch per vertex, never per edge, between the View's Adj arrays and the
// framework walk. BFS, CComp and DCentr keep a sequential tracked loop
// beside their engine call: the engine runs native kernels only. SPath,
// BFSDirOpt and GColor keep a separate tracked formulation (spathTracked
// and the like): SPath's heap costs the native kernel 22 % when shared
// under tracker guards, and the other two track different algorithms
// whose event streams are archived. DESIGN.md §6 has the measurements;
// the parity tests hold every pair to one result.
package workloads

import (
	"errors"

	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// ResultFields lists every vertex property field a workload writes its
// result into, in the order the Table 4 registry first reaches them, with
// the CCentr extension's last. A harness that registers
// property.SysIndexField and then these on a graph before its first run
// fixes every field's slot, so no run's layout depends on which ran
// before it.
var ResultFields = []string{
	BFSLevelField, DFSOrderField, SPathDistField, KCoreField, CCompField,
	ColorField, DCentrField, BCentrField, CCentrField,
}

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
	// View is an optional pre-built vertex view; a plain one is created if
	// nil. Harness code builds the view before installing the tracker so
	// that snapshot setup is not attributed to the measured region.
	View *property.View
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
		opt.View = g.View()
	}
	return opt.View
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
		a.t.Load(a.at(i), narrow.Size32(a.elem))
	}
}

// St records a write of element i.
func (a simArr) St(i int) {
	if a.t != nil {
		a.t.Store(a.at(i), narrow.Size32(a.elem))
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
