package gpuwl

import (
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/simt"
)

// KCore peels cores level by level with the two-phase scheme GPU
// implementations use: a uniform "mark" kernel flags every surviving
// vertex whose degree fell to the current k (every thread does the same
// two coalesced loads and a compare), then a compacted-worklist kernel
// walks only the marked vertices to decrement neighbor degrees. Because
// the overwhelming majority of thread-slots run the uniform mark kernel,
// kCore lands in the low-divergence corner of the paper's Figure 10.
func KCore(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	if n == 0 {
		return Result{Name: "kCore"}
	}
	deg := make([]int32, n)
	core := make([]int32, n)
	removed := make([]bool, n)
	for i := int32(0); i < int32(n); i++ {
		deg[i] = int32(g.Degree(i))
	}
	degAddr := d.Alloc(n, 4)
	remAddr := d.Alloc(n, 1)
	wlAddr := d.Alloc(n, 4)
	worklist := make([]int32, 0, n)
	iters := 0
	left := n
	for k := int32(0); left > 0 && iters < 4*n+64; k++ {
		for {
			// Phase 1 (uniform): mark vertices peeling at this k.
			worklist = worklist[:0]
			d.Launch(n, func(tid int32, ln *simt.Lane) {
				ln.Ld(remAddr+uint64(tid), 1)
				ln.Ld(degAddr+uint64(tid)*4, 4)
				ln.Op(2)
				if removed[tid] || deg[tid] > k {
					return
				}
				removed[tid] = true
				core[tid] = k
				ln.St(remAddr+uint64(tid), 1)
				worklist = append(worklist, tid)
			})
			iters++
			if len(worklist) == 0 {
				break
			}
			left -= len(worklist)
			// Phase 2 (compacted): decrement neighbors of peeled vertices.
			wl := worklist
			d.Launch(len(wl), func(tid int32, ln *simt.Lane) {
				ln.Ld(wlAddr+uint64(tid)*4, 4)
				v := wl[tid]
				ln.Ld(g.RowAddr(v), 8)
				ln.Ld(g.RowAddr(v+1), 8)
				for e := g.RowPtr[v]; e < g.RowPtr[v+1]; e++ {
					ln.Ld(g.ColAddr(e), 4)
					nb := g.Col[e]
					ln.Op(1)
					if !removed[nb] {
						deg[nb]--
						ln.Atomic(degAddr+uint64(nb)*4, 4)
					}
				}
			})
			iters++
		}
	}
	sum := 0.0
	for _, c := range core {
		sum += float64(c)
	}
	return Result{Name: "kCore", Stats: d.Stats(), Value: sum, Iterations: iters}
}

// CComp labels connected components with Soman's GPU algorithm [35]: an
// edge-centric hooking kernel (one thread per edge) alternating with a
// pointer-jumping kernel. Edge partitioning balances per-thread work, so
// branch divergence stays low while the scattered label accesses keep
// memory traffic — and achieved throughput — the highest in the suite
// (Figure 11).
func CComp(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	if n == 0 {
		return Result{Name: "CComp"}
	}
	coo := g.ToCOO()
	e := len(coo.Src)
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	srcAddr := d.Alloc(e, 4)
	dstAddr := d.Alloc(e, 4)
	lblAddr := d.Alloc(n, 4)
	iters := 0
	for {
		hooked := false
		// Hooking: each edge thread links the larger root to the smaller.
		d.Launch(e, func(tid int32, ln *simt.Lane) {
			ln.Ld(srcAddr+uint64(tid)*4, 4)
			ln.Ld(dstAddr+uint64(tid)*4, 4)
			u, v := coo.Src[tid], coo.Dst[tid]
			ln.Ld(lblAddr+uint64(u)*4, 4)
			ln.Ld(lblAddr+uint64(v)*4, 4)
			lu, lv := label[u], label[v]
			ln.Op(2)
			if lu == lv {
				return
			}
			hi, lo := lu, lv
			if hi < lo {
				hi, lo = lo, hi
			}
			label[hi] = lo
			ln.Atomic(lblAddr+uint64(hi)*4, 4)
			hooked = true
		})
		iters++
		// Pointer jumping until every label is a root.
		for {
			jumped := false
			d.Launch(n, func(tid int32, ln *simt.Lane) {
				ln.Ld(lblAddr+uint64(tid)*4, 4)
				l := label[tid]
				ln.Ld(lblAddr+uint64(l)*4, 4)
				ln.Op(1)
				if label[l] != l {
					label[tid] = label[l]
					ln.St(lblAddr+uint64(tid)*4, 4)
					jumped = true
				}
			})
			iters++
			if !jumped {
				break
			}
		}
		if !hooked {
			break
		}
	}
	comps := 0
	for i, l := range label {
		if int32(i) == l {
			comps++
		}
	}
	return Result{Name: "CComp", Stats: d.Stats(), Value: float64(comps), Iterations: iters}
}

// GColor is the thread-centric Jones-Plassmann round: every uncolored
// vertex compares hashed priorities against all uncolored neighbors and,
// when it wins, scans neighbor colors for the smallest free one. The
// per-edge computation (hash, two compares, set update) is the heaviest of
// the thread-centric kernels — the paper attributes GColor's high BDR to
// exactly this heavier per-edge work.
func GColor(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	if n == 0 {
		return Result{Name: "GColor"}
	}
	color := make([]int32, n)
	for i := range color {
		color[i] = -1
	}
	colAddr := d.Alloc(n, 4)
	prio := func(v int32) uint64 {
		x := uint64(v) * 0x9e3779b97f4a7c15
		x ^= x >> 31
		return x
	}
	iters := 0
	colored := 0
	for colored < n && iters < 4*n+64 {
		d.Launch(n, func(tid int32, ln *simt.Lane) {
			ln.Ld(colAddr+uint64(tid)*4, 4)
			ln.Op(1)
			if color[tid] >= 0 {
				return
			}
			p := prio(tid)
			ln.Op(3)
			isMax := true
			var used uint64
			for k := g.RowPtr[tid]; k < g.RowPtr[tid+1]; k++ {
				ln.Ld(g.ColAddr(k), 4)
				nb := g.Col[k]
				ln.Ld(colAddr+uint64(nb)*4, 4)
				ln.Op(5) // hash + priority compare + set update
				if c := color[nb]; c < 0 {
					if np := prio(nb); np > p || (np == p && nb > tid) {
						isMax = false
						break
					}
				} else if c < 64 {
					used |= 1 << uint(c)
				}
			}
			ln.Op(2)
			if !isMax {
				return
			}
			c := int32(0)
			for used&(1<<uint(c)) != 0 && c < 63 {
				c++
				ln.Op(1)
			}
			color[tid] = c
			ln.St(colAddr+uint64(tid)*4, 4)
			colored++
		})
		iters++
	}
	sum := 0.0
	for _, c := range color {
		sum += float64(c)
	}
	return Result{Name: "GColor", Stats: d.Stats(), Value: sum, Iterations: iters}
}

// TC counts triangles edge-centrically: one thread per (u,v) edge with
// u < v merge-intersects the two ordered adjacency lists. Edge partitioning
// keeps warps balanced (low BDR), the compare-dominated inner loop makes TC
// the suite's most compute-bound GPU kernel — highest IPC, lowest memory
// throughput (Figure 11) — and the low data intensity keeps its speedup
// over the CPU the smallest (Figure 12).
func TC(d *simt.Device, g *csr.Graph) Result {
	n := g.N
	if n == 0 {
		return Result{Name: "TC"}
	}
	coo := g.ToCOO()
	// Work-item expansion: each undirected edge (u < v) contributes
	// ceil(|smaller adjacency|/chunk) items of at most chunk binary-search
	// probes each. Chunking bounds per-thread work, which is what keeps the
	// edge-centric TC kernel's warps balanced (low BDR) despite skewed
	// degrees — the standard load-balancing trick of GPU triangle counters.
	const chunk = 8
	type item struct {
		small int32 // vertex whose list is probed element-wise
		big   int32 // vertex whose list is binary-searched
		v     int32 // the larger endpoint (triangle ordering filter)
		off   int32 // starting offset within the small list
	}
	var items []item
	for t := range coo.Src {
		u, v := coo.Src[t], coo.Dst[t]
		if u >= v {
			continue
		}
		a, b := u, v
		if g.Degree(a) > g.Degree(b) {
			a, b = b, a
		}
		// Host-side pre-filter: only elements > v can close a triangle
		// (u < v < w ordering), and rows are sorted, so items start at the
		// first such element. This keeps every device-side probe a full
		// search — uniform per-thread work.
		start := lowerBound(g.Col[g.RowPtr[a]:g.RowPtr[a+1]], v+1) + g.RowPtr[a]
		for off := start; off < g.RowPtr[a+1]; off += chunk {
			items = append(items, item{small: a, big: b, v: v, off: off})
		}
	}
	itemAddr := d.Alloc(len(items), 16)
	triangles := 0
	d.Launch(len(items), func(tid int32, ln *simt.Lane) {
		ln.Ld(itemAddr+uint64(tid)*16, 16)
		it := items[tid]
		ln.Op(3)
		end := it.off + chunk
		if end > g.RowPtr[it.small+1] {
			end = g.RowPtr[it.small+1]
		}
		lo0, hi0 := g.RowPtr[it.big], g.RowPtr[it.big+1]
		for e := it.off; e < end; e++ {
			ln.Ld(g.ColAddr(e), 4)
			w := g.Col[e]
			ln.Op(1)
			lo, hi := lo0, hi0
			for lo < hi {
				mid := lo + (hi-lo)/2
				ln.Ld(g.ColAddr(mid), 4)
				ln.Op(2)
				if g.Col[mid] < w {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < hi0 && g.Col[lo] == w {
				triangles++
				ln.Op(1)
			}
		}
	})
	return Result{Name: "TC", Stats: d.Stats(), Value: float64(triangles), Iterations: 1}
}

// lowerBound returns the first index in sorted xs with xs[i] >= x. Rows
// of a csr.Graph are sorted because the View's are.
func lowerBound(xs []int32, x int32) int32 {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}
