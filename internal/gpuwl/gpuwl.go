// Package gpuwl implements the eight GPU workloads of GraphBIG (Table 3:
// BFS, SPath, kCore, CComp, GColor, TC, DCentr, BCentr) as SIMT kernels
// over the CSR/COO representations, mirroring the paper's GPU side: the
// dynamic vertex-centric graph is converted to CSR in the populate step
// and kernels follow either the thread-centric (one thread per vertex) or
// edge-centric (one thread per edge) model — the design axis behind the
// divergence differences of Figures 10 and 13.
package gpuwl

import (
	"math"

	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/simt"
)

// Result is the outcome of one GPU workload run.
type Result struct {
	Name  string
	Stats simt.Stats
	// Value is a workload checksum (reached count, triangles, components,
	// the sum of reached SPath distances…) pinned by tests against the CPU
	// implementation.
	Value float64
	// Iterations counts host-side kernel-launch rounds.
	Iterations int
}

// Runner is the common GPU workload signature: workloads allocate their
// device arrays, run their launch loop and leave counters on the device.
type Runner func(d *simt.Device, g *csr.Graph) Result

// BFS is the thread-centric level-synchronous traversal: every round each
// vertex thread tests its level and expands its neighbors if it sits on
// the frontier. Per-thread work tracks vertex degree, so degree variance
// turns directly into warp divergence.
func BFS(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	lvl := make([]int32, n)
	for i := range lvl {
		lvl[i] = -1
	}
	if n == 0 {
		return Result{Name: "BFS"}
	}
	lvl[0] = 0
	lvlAddr := d.Alloc(n, 4)
	reached := 1
	iters := 0
	for cur := int32(0); ; cur++ {
		changed := false
		d.Launch(n, func(tid int32, ln *simt.Lane) {
			ln.Ld(lvlAddr+uint64(tid)*4, 4)
			ln.Op(2)
			if lvl[tid] != cur {
				return
			}
			ln.Ld(g.RowAddr(tid), 8)
			ln.Ld(g.RowAddr(tid+1), 8)
			for k := g.RowPtr[tid]; k < g.RowPtr[tid+1]; k++ {
				ln.Ld(g.ColAddr(k), 4)
				nb := g.Col[k]
				ln.Ld(lvlAddr+uint64(nb)*4, 4)
				ln.Op(2)
				if lvl[nb] < 0 {
					lvl[nb] = cur + 1
					ln.St(lvlAddr+uint64(nb)*4, 4)
					reached++
					changed = true
				}
			}
		})
		iters++
		if !changed {
			break
		}
	}
	return Result{Name: "BFS", Stats: d.Stats(), Value: float64(reached), Iterations: iters}
}

// SPath is the iterative (Bellman-Ford-style) relaxation used on GPUs in
// place of Dijkstra's sequential priority queue: active vertices relax all
// outgoing edges each round; updated distances activate their vertex for
// the next round. Like BFS it is thread-centric with a data-dependent
// working set, which the paper singles out as the cause of both workloads'
// lower GPU speedups.
func SPath(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	if n == 0 {
		return Result{Name: "SPath"}
	}
	inf := math.Inf(1)
	dist := make([]float64, n)
	active := make([]bool, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	active[0] = true
	distAddr := d.Alloc(n, 8)
	actAddr := d.Alloc(n, 1)
	iters := 0
	for iters < 4*n {
		changed := false
		d.Launch(n, func(tid int32, ln *simt.Lane) {
			ln.Ld(actAddr+uint64(tid), 1)
			ln.Op(1)
			if !active[tid] {
				return
			}
			active[tid] = false
			ln.St(actAddr+uint64(tid), 1)
			ln.Ld(distAddr+uint64(tid)*8, 8)
			du := dist[tid]
			ln.Ld(g.RowAddr(tid), 8)
			ln.Ld(g.RowAddr(tid+1), 8)
			for k := g.RowPtr[tid]; k < g.RowPtr[tid+1]; k++ {
				ln.Ld(g.ColAddr(k), 4)
				ln.Ld(g.WAddr(k), 8)
				nb := g.Col[k]
				nd := du + g.W[k]
				ln.Op(3)
				ln.Ld(distAddr+uint64(nb)*8, 8)
				if nd < dist[nb] {
					dist[nb] = nd
					active[nb] = true
					// atomicMin on the distance slot.
					ln.Atomic(distAddr+uint64(nb)*8, 8)
					ln.St(actAddr+uint64(nb), 1)
					changed = true
				}
			}
		})
		iters++
		if !changed {
			break
		}
	}
	sum := 0.0
	for _, dv := range dist {
		if dv < inf {
			sum += dv
		}
	}
	return Result{Name: "SPath", Stats: d.Stats(), Value: sum, Iterations: iters}
}
