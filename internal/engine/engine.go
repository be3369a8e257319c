// Package engine implements the suite's unified vertex-centric frontier
// engine: one direction-optimizing (push/pull) traversal core plus shared
// vertex-map scaffolding, hosting the native paths of the frontier
// workloads (BFS, BFSDirOpt, CComp, SPathDelta, GColor, DCentr) and the
// index-resolved adjacency the remaining analytics kernels (SPath, kCore)
// iterate directly.
//
// Native (wall-clock) runs iterate the property.View's flat CSR-like
// arrays — dense int32 neighbor indices with zero per-edge FindVertex hash
// lookups — and fan out across workers. Push phases claim vertices with an
// atomic compare-and-swap on the distance array; pull phases partition the
// vertex range so every slot has a single writer, keeping the engine clean
// under the race detector.
//
// The engine runs native kernels only: it never reads the graph's
// mem.Tracker. Instrumented runs (Figures 1 and 5-9) are the workloads'
// own single-threaded loops over the framework primitives.
package engine

import (
	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Direction-optimizing switch parameters (Beamer's alpha/beta, the GAP
// Benchmark Suite defaults): push switches to pull when the frontier's
// out-degree sum exceeds 1/alpha of the unexplored edges, and pull hands
// back to push when the awake count falls below 1/beta of the vertices.
const (
	Alpha = 15
	Beta  = 18
)

// Engine hosts frontier computations over an index-resolved view of one
// graph. It is cheap to construct and reusable across Traverse calls
// within a workload run (frontier buffers are cached); it is not safe for
// concurrent use by multiple goroutines.
type Engine struct {
	vw      *property.View
	workers int // raw request; resolved by Workers()
	n       int

	// Cached traversal scaffolding, allocated on first use and reused
	// across Traverse calls (CComp runs one traversal per component).
	cur, next *concurrent.Frontier
	bits      [2]*concurrent.HierBitmap
	sparse    []int32 // scratch for bitmap sparsification at pull exit
}

// New returns an engine over vw; workers <= 0 selects GOMAXPROCS. g is
// unused (ROADMAP 1(a) drops it with the benchmark's call).
func New(g *property.Graph, vw *property.View, workers int) *Engine {
	return &Engine{vw: vw, workers: workers, n: vw.Len()}
}

// Workers resolves the effective parallelism.
func (e *Engine) Workers() int { return concurrent.Workers(e.workers) }

// N returns the vertex count of the view.
func (e *Engine) N() int { return e.n }

// View returns the underlying index-resolved snapshot.
func (e *Engine) View() *property.View { return e.vw }

// ForVertices runs body(i) for every dense index, work-stealing across the
// engine's workers with the given grain; with one worker it runs inline in
// index order.
func (e *Engine) ForVertices(grain int, body func(i int)) {
	concurrent.ParallelItems(e.n, e.Workers(), grain, body)
}

// ForItems runs body(i) for every i in [0,m) across the engine's workers.
func (e *Engine) ForItems(m, grain int, body func(i int)) {
	concurrent.ParallelItems(m, e.Workers(), grain, body)
}

// ForChunks splits [0,n) into contiguous per-worker chunks and runs
// body(lo,hi) concurrently. Pull phases use it so every vertex slot has a
// single writer.
func (e *Engine) ForChunks(body func(lo, hi int)) {
	concurrent.ParallelRange(e.n, e.Workers(), body)
}

// frontiers returns the cached level frontiers, allocating on first use.
func (e *Engine) frontiers() (cur, next *concurrent.Frontier) {
	if e.cur == nil {
		e.cur = concurrent.NewFrontier(e.n)
		e.next = concurrent.NewFrontier(e.n)
	}
	e.cur.Reset()
	e.next.Reset()
	return e.cur, e.next
}

// bitmaps returns the cached dense-frontier bitmaps, allocating on first
// use. Callers clear them before reuse. The hierarchical form keeps the
// per-round Clear and the pull-exit sparsification proportional to the
// populated words instead of the vertex count (DESIGN.md §12).
func (e *Engine) bitmaps() (cur, next *concurrent.HierBitmap) {
	if e.bits[0] == nil {
		e.bits[0] = concurrent.NewHierBitmap(e.n)
		e.bits[1] = concurrent.NewHierBitmap(e.n)
	}
	return e.bits[0], e.bits[1]
}
