package workloads

import (
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// KCoreField is the vertex property holding the core number.
const KCoreField = "kcore"

// KCore performs full k-core decomposition with Matula & Beck's
// linear-time bucket-peeling algorithm (the paper's cited method [23]):
// vertices are bucket-sorted by degree and peeled in increasing order,
// decrementing surviving neighbors and moving them between buckets. The
// bucket bookkeeping arrays are compact and hot, while the neighbor
// updates scatter across the whole graph — the mix that places kCore
// among the most backend-bound workloads in Figure 5.
//
// Both modes share the bucket sort, the peel and the bucket move. Per
// peeled vertex a native run ranges the view's resolved Adj array; an
// instrumented run walks the same neighbors through Neighbors, FindVertex
// and GetProp, and reports its simulated array accesses in tracker-only
// blocks that the native loops never enter.
func KCore(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	core := g.EnsureField(KCoreField)
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()

	deg := make([]int32, n)
	maxDeg := int32(0)
	for i, v := range vw.Verts {
		deg[i] = narrow.Index32(v.OutDegree())
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	// Bucket sort by degree: bin[d] = start offset of degree-d vertices.
	bin := make([]int32, maxDeg+2)
	for i := 0; i < n; i++ {
		bin[deg[i]+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int32, n) // vertices in degree order
	pos := make([]int32, n)  // position of vertex i in vert
	next := make([]int32, maxDeg+1)
	copy(next, bin[:maxDeg+1])
	for i := 0; i < n; i++ {
		p := next[deg[i]]
		next[deg[i]]++
		vert[p] = narrow.Index32(i)
		pos[i] = p
	}

	degSim, binSim := newSimArr(g, n, 4), newSimArr(g, int(maxDeg)+2, 4)
	vertSim, posSim := newSimArr(g, n, 4), newSimArr(g, n, 4)
	if t != nil {
		// The set-up above emits nothing; replay its accesses in order.
		for i := 0; i < n; i++ {
			degSim.St(i)
			inst(t, 2)
		}
		for i := 0; i < n; i++ {
			degSim.Ld(i)
			binSim.St(int(deg[i]) + 1)
			inst(t, 2)
		}
		for d := 1; d <= int(maxDeg)+1; d++ {
			binSim.Ld(d)
			binSim.St(d)
			inst(t, 2)
		}
		for i := 0; i < n; i++ {
			vertSim.St(int(pos[i]))
			posSim.St(i)
			inst(t, 4)
		}
	}

	// move swaps neighbor wi with the first vertex of its current bucket
	// and shrinks wi's degree by one.
	move := func(wi int32) {
		dw := deg[wi]
		pw := pos[wi]
		ps := bin[dw]
		us := vert[ps]
		if us != wi {
			vert[pw], vert[ps] = us, wi
			pos[wi], pos[us] = ps, pw
		}
		bin[dw]++
		deg[wi]--
		if t != nil {
			posSim.Ld(int(wi))
			binSim.Ld(int(dw))
			vertSim.Ld(int(ps))
			if us != wi {
				vertSim.St(int(pw))
				vertSim.St(int(ps))
				posSim.St(int(wi))
				posSim.St(int(us))
			}
			binSim.St(int(dw))
			degSim.St(int(wi))
			inst(t, 8)
		}
	}

	// Peel in increasing degree order.
	maxCore := int32(0)
	sum := 0.0
	for p := 0; p < n; p++ {
		vi := vert[p]
		c := deg[vi]
		if c > maxCore {
			maxCore = c
		}
		sum += float64(c)
		if t == nil {
			for _, wi := range vw.Adj(vi) {
				if deg[wi] > c {
					move(wi)
				}
			}
			continue
		}
		vertSim.Ld(p)
		v := vw.Verts[vi]
		g.SetProp(v, core, float64(c))
		g.Neighbors(v, func(_ int, e *property.Edge) bool {
			nb := g.FindVertex(e.To)
			if nb == nil {
				return true
			}
			wi := int32(g.GetProp(nb, idxSlot))
			degSim.Ld(int(wi))
			higher := deg[wi] > c
			branch(t, sitePeel, higher)
			if higher {
				move(wi)
			}
			return true
		})
	}
	// A peeled vertex's degree is never lowered again, so deg now holds
	// every core number.
	property.SetColumn(vw, core, deg)
	return &Result{
		Workload: "kCore",
		Visited:  int64(n),
		Checksum: sum,
		Stats:    map[string]float64{"max_core": float64(maxCore)},
	}, nil
}
