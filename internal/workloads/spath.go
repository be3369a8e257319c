package workloads

import (
	"math"

	"github.com/graphbig/graphbig-go/internal/property"
)

// SPathDistField is the vertex property holding the shortest-path distance.
const SPathDistField = "spath.dist"

// SPath computes single-source shortest paths with Dijkstra's algorithm
// (paper §4.2, graph path/flow analytics) using a binary min-heap with
// lazy deletion. Distances are edge-weight sums; weights come from the
// dataset. Dijkstra's priority-queue dependence makes the workload
// sequential; its alternating heap and adjacency accesses give it the
// CompStruct profile with a mid-size local working set (the heap).
//
// The native path runs the same heap mechanics over the view's resolved
// Adj/AdjW arrays — relaxations happen in identical order, so settle order
// and the distance checksum are bit-identical to the instrumented
// framework walk.
func SPath(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	distF := g.EnsureField(SPathDistField)
	inf := math.Inf(1)
	if g.Tracker() != nil {
		// The tracked relaxation reads the field as its distance array.
		for _, v := range vw.Verts {
			v.SetPropRaw(distF, inf)
		}
	}
	srcIdx, err := pick(vw, opt)
	if err != nil {
		return nil, err
	}
	if g.Tracker() != nil {
		return spathTracked(g, vw, distF, srcIdx)
	}

	dist := make([]float64, n)
	for i := range dist {
		dist[i] = inf
	}
	// Binary heap of (dist, vertex-index) with lazy deletion; same sift
	// mechanics as the instrumented variant.
	hd := make([]float64, 0, n)
	hi := make([]int32, 0, n)
	swap := func(a, b int) {
		hd[a], hd[b] = hd[b], hd[a]
		hi[a], hi[b] = hi[b], hi[a]
	}
	push := func(d float64, i int32) {
		hd = append(hd, d)
		hi = append(hi, i)
		for c := len(hd) - 1; c > 0; {
			p := (c - 1) / 2
			if hd[c] >= hd[p] {
				break
			}
			swap(c, p)
			c = p
		}
	}
	pop := func() (float64, int32) {
		d, i := hd[0], hi[0]
		last := len(hd) - 1
		hd[0], hi[0] = hd[last], hi[last]
		hd, hi = hd[:last], hi[:last]
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			s := c
			if l < len(hd) && hd[l] < hd[s] {
				s = l
			}
			if r < len(hd) && hd[r] < hd[s] {
				s = r
			}
			if s == c {
				break
			}
			swap(c, s)
			c = s
		}
		return d, i
	}

	dist[srcIdx] = 0
	push(0, srcIdx)
	settled := int64(0)
	sum := 0.0
	for len(hd) > 0 {
		d, ui := pop()
		if d > dist[ui] {
			continue // stale entry
		}
		settled++
		sum += d
		adj := vw.Adj(ui)
		// Pinning the weights to the adjacency extent lets the range
		// analysis (and the compiler's prove pass) drop the wts[k]
		// bounds check inside the relaxation loop.
		wts := vw.AdjW(ui)[:len(adj)]
		for k, v := range adj {
			if nd := d + wts[k]; nd < dist[v] {
				dist[v] = nd
				push(nd, v)
			}
		}
	}
	property.SetColumn(vw, distF, dist)
	return &Result{
		Workload: "SPath",
		Visited:  settled,
		Checksum: sum,
		Stats:    map[string]float64{},
	}, nil
}

// spathTracked is the original framework-primitive Dijkstra retained for
// instrumented runs.
func spathTracked(g *property.Graph, vw *property.View, dist int, srcIdx int32) (*Result, error) {
	n := vw.Len()
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()

	// Binary heap of (dist, vertex-index) with lazy deletion.
	hd := make([]float64, 0, n)
	hi := make([]int32, 0, n)
	hSim := newSimArr(g, 4*n, 16)
	less := func(a, b int) bool {
		hSim.Ld(a)
		hSim.Ld(b)
		c := hd[a] < hd[b]
		branch(t, siteHeap, c)
		return c
	}
	swap := func(a, b int) {
		hd[a], hd[b] = hd[b], hd[a]
		hi[a], hi[b] = hi[b], hi[a]
		hSim.St(a)
		hSim.St(b)
		inst(t, 4)
	}
	push := func(d float64, i int32) {
		hd = append(hd, d)
		hi = append(hi, i)
		hSim.St(len(hd) - 1)
		for c := len(hd) - 1; c > 0; {
			p := (c - 1) / 2
			if !less(c, p) {
				break
			}
			swap(c, p)
			c = p
		}
	}
	pop := func() (float64, int32) {
		d, i := hd[0], hi[0]
		hSim.Ld(0)
		last := len(hd) - 1
		hd[0], hi[0] = hd[last], hi[last]
		hd, hi = hd[:last], hi[:last]
		hSim.St(0)
		for c := 0; ; {
			l, r := 2*c+1, 2*c+2
			s := c
			if l < len(hd) && less(l, s) {
				s = l
			}
			if r < len(hd) && less(r, s) {
				s = r
			}
			if s == c {
				break
			}
			swap(c, s)
			c = s
		}
		return d, i
	}

	src := vw.Verts[srcIdx]
	g.SetProp(src, dist, 0)
	push(0, srcIdx)
	settled := int64(0)
	sum := 0.0
	for len(hd) > 0 {
		d, ui := pop()
		u := vw.Verts[ui]
		stale := d > g.GetProp(u, dist)
		branch(t, siteRelax, stale)
		if stale {
			continue
		}
		settled++
		sum += d
		g.Neighbors(u, func(_ int, e *property.Edge) bool {
			nb := g.FindVertex(e.To)
			if nb == nil {
				return true
			}
			nd := d + e.Weight
			inst(t, 3)
			better := nd < g.GetProp(nb, dist)
			branch(t, siteRelax, better)
			if better {
				g.SetProp(nb, dist, nd)
				push(nd, int32(g.GetProp(nb, idxSlot)))
			}
			return true
		})
	}
	return &Result{
		Workload: "SPath",
		Visited:  settled,
		Checksum: sum,
		Stats:    map[string]float64{},
	}, nil
}
