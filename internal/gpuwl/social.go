package gpuwl

import (
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/simt"
)

// DCentr computes degree centrality thread-centrically: each vertex thread
// streams its adjacency list and atomically bumps the (in-degree) counter
// of every neighbor it points at. The combination is the paper's Figure 10
// outlier: extreme branch divergence (pure degree-variance work with no
// compute to amortize it) and extreme memory divergence (scattered atomic
// updates that serialize within warps) — data-intensive enough to still
// push ~75 GB/s, but with IPC crushed by the atomic replays (Figure 11).
func DCentr(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	if n == 0 {
		return Result{Name: "DCentr"}
	}
	centr := make([]int32, n)
	cenAddr := d.Alloc(n, 4)
	d.Launch(n, func(tid int32, ln *simt.Lane) {
		ln.Ld(g.RowAddr(tid), 8)
		ln.Ld(g.RowAddr(tid+1), 8)
		ln.Op(1)
		for k := g.RowPtr[tid]; k < g.RowPtr[tid+1]; k++ {
			ln.Ld(g.ColAddr(k), 4)
			nb := g.Col[k]
			centr[nb]++
			ln.Atomic(cenAddr+uint64(nb)*4, 4)
		}
		// Own out-degree contribution.
		centr[tid] += int32(g.RowPtr[tid+1] - g.RowPtr[tid])
		ln.St(cenAddr+uint64(tid)*4, 4)
	})
	sum := 0.0
	for _, c := range centr {
		sum += float64(c)
	}
	return Result{Name: "DCentr", Stats: d.Stats(), Value: sum, Iterations: 1}
}

// BCentr runs Brandes' betweenness centrality on the device for a small
// deterministic source sample: a thread-centric forward BFS accumulating
// sigma path counts, then level-by-level backward kernels accumulating
// float dependencies. The heavy per-edge floating-point work puts BCentr
// in the paper's branch-divergence-dominated group with GColor.
func BCentr(d *simt.Device, g *csr.Graph) Result {
	const sources = 4
	n := g.N
	if n == 0 {
		return Result{Name: "BCentr"}
	}
	bc := make([]float64, n)
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	distAddr := d.Alloc(n, 4)
	sigAddr := d.Alloc(n, 8)
	dltAddr := d.Alloc(n, 8)
	bcAddr := d.Alloc(n, 8)
	iters := 0

	k := sources
	if k > n {
		k = n
	}
	for s := 0; s < k; s++ {
		src := int32(uint64(s) * uint64(n) / uint64(k))
		maxLvl := int32(0)
		for i := range dist {
			dist[i], sigma[i], delta[i] = -1, 0, 0
		}
		dist[src] = 0
		sigma[src] = 1
		// Forward: level-synchronous sigma accumulation.
		for cur := int32(0); ; cur++ {
			changed := false
			d.Launch(n, func(tid int32, ln *simt.Lane) {
				ln.Ld(distAddr+uint64(tid)*4, 4)
				ln.Op(1)
				if dist[tid] != cur {
					return
				}
				ln.Ld(sigAddr+uint64(tid)*8, 8)
				for e := g.RowPtr[tid]; e < g.RowPtr[tid+1]; e++ {
					ln.Ld(g.ColAddr(e), 4)
					nb := g.Col[e]
					ln.Ld(distAddr+uint64(nb)*4, 4)
					ln.Op(2)
					if dist[nb] < 0 {
						dist[nb] = cur + 1
						ln.St(distAddr+uint64(nb)*4, 4)
						changed = true
					}
					if dist[nb] == cur+1 {
						sigma[nb] += sigma[tid]
						ln.Atomic(sigAddr+uint64(nb)*8, 8)
						ln.Op(2)
					}
				}
			})
			iters++
			if !changed {
				maxLvl = cur
				break
			}
		}
		// Backward: dependency accumulation, one kernel per level.
		for cur := maxLvl; cur > 0; cur-- {
			d.Launch(n, func(tid int32, ln *simt.Lane) {
				ln.Ld(distAddr+uint64(tid)*4, 4)
				ln.Op(1)
				if dist[tid] != cur-1 {
					return
				}
				ln.Ld(sigAddr+uint64(tid)*8, 8)
				ln.Ld(dltAddr+uint64(tid)*8, 8)
				for e := g.RowPtr[tid]; e < g.RowPtr[tid+1]; e++ {
					ln.Ld(g.ColAddr(e), 4)
					nb := g.Col[e]
					ln.Ld(distAddr+uint64(nb)*4, 4)
					ln.Op(2)
					if dist[nb] == cur {
						ln.Ld(sigAddr+uint64(nb)*8, 8)
						ln.Ld(dltAddr+uint64(nb)*8, 8)
						delta[tid] += sigma[tid] / sigma[nb] * (1 + delta[nb])
						ln.Op(6) // div, mul, adds
						ln.St(dltAddr+uint64(tid)*8, 8)
					}
				}
				if tid != src && dist[tid] >= 0 {
					bc[tid] += delta[tid]
					ln.Ld(bcAddr+uint64(tid)*8, 8)
					ln.St(bcAddr+uint64(tid)*8, 8)
					ln.Op(2)
				}
			})
			iters++
		}
	}
	sum := 0.0
	for _, x := range bc {
		sum += x
	}
	return Result{Name: "BCentr", Stats: d.Stats(), Value: sum, Iterations: iters}
}
