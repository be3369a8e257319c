package main

import (
	"container/heap"
	"math"
)

// The oracles are textbook sequential algorithms over a View's flat
// NbrOff/Nbr/NbrW arrays. They share no code with internal/engine or
// internal/workloads on purpose: every kernel run of every trial is
// checked against them, and the same functions are the timed honest
// baselines behind engine.bfs_vs_seq and workloads.spathdelta_vs_dijkstra
// (Ammar & Özsu: a parallel path is only worth its code next to a plain
// sequential one).

// seqBFS returns each vertex's level from src (-1 when unreachable).
func seqBFS(off, nbr []int32, src int32) []int32 {
	n := len(off) - 1
	lvl := make([]int32, n)
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[src] = 0
	queue := make([]int32, 1, n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		next := lvl[u] + 1
		for _, v := range nbr[off[u]:off[u+1]] {
			if lvl[v] < 0 {
				lvl[v] = next
				queue = append(queue, v)
			}
		}
	}
	return lvl
}

// bfsSummary is the (Visited, Checksum) pair workloads.BFS reports:
// reached vertices and the sum of their levels.
func bfsSummary(lvl []int32) (visited int64, checksum float64) {
	for _, l := range lvl {
		if l >= 0 {
			visited++
			checksum += float64(l)
		}
	}
	return visited, checksum
}

// unionFind labels weakly connected components with path-halving
// union-find and returns each vertex's root plus the component count.
func unionFind(off, nbr []int32) (root []int32, comps int) {
	n := len(off) - 1
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		ru := find(int32(u))
		for _, v := range nbr[off[u]:off[u+1]] {
			if rv := find(v); rv != ru {
				// Attach the larger root under the smaller so a
				// component's root is its minimum index.
				if rv < ru {
					parent[ru] = rv
					ru = rv
				} else {
					parent[rv] = ru
				}
			}
		}
	}
	root = make([]int32, n)
	for i := range root {
		root[i] = find(int32(i))
		if root[i] == int32(i) {
			comps++
		}
	}
	return root, comps
}

type heapItem struct {
	d float64
	v int32
}

type distHeap []heapItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// dijkstra returns exact shortest-path distances from src (+Inf when
// unreachable) with a binary heap and lazy deletion. Weights must be
// non-negative; the benchmark's inputs are.
func dijkstra(off, nbr []int32, w []float64, src int32) []float64 {
	n := len(off) - 1
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		if it.d > dist[it.v] {
			continue
		}
		for k := off[it.v]; k < off[it.v+1]; k++ {
			if nd := it.d + w[k]; nd < dist[nbr[k]] {
				dist[nbr[k]] = nd
				heap.Push(h, heapItem{nd, nbr[k]})
			}
		}
	}
	return dist
}

// distSummary is the (Visited, Checksum) pair the shortest-path workloads
// report: settled vertices and the sum of their distances in index order.
func distSummary(dist []float64) (visited int64, checksum float64) {
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			visited++
			checksum += d
		}
	}
	return visited, checksum
}

// peelCores returns each vertex's core number by repeatedly removing a
// minimum-degree vertex (Matula-Beck with a plain bucket queue). Degrees
// are out-record counts, duplicates and self-loops included, which is
// what workloads.KCore counts too.
func peelCores(off, nbr []int32) []int32 {
	n := len(off) - 1
	deg := make([]int32, n)
	maxDeg := int32(0)
	for i := range deg {
		deg[i] = off[i+1] - off[i]
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	buckets := make([][]int32, maxDeg+1)
	for i, d := range deg {
		buckets[d] = append(buckets[d], int32(i))
	}
	core := make([]int32, n)
	removed := make([]bool, n)
	for d := int32(0); d <= maxDeg; {
		b := buckets[d]
		if len(b) == 0 {
			d++
			continue
		}
		u := b[len(b)-1]
		buckets[d] = b[:len(b)-1]
		if removed[u] || deg[u] != d {
			continue // stale entry: u moved to a lower bucket since
		}
		// A neighbour's degree never drops below d, so d only grows and
		// is the core number of everything peeled at it.
		core[u] = d
		removed[u] = true
		for _, v := range nbr[off[u]:off[u+1]] {
			if !removed[v] && deg[v] > d {
				deg[v]--
				buckets[deg[v]] = append(buckets[deg[v]], v)
			}
		}
	}
	return core
}

func coreSummary(core []int32) (visited int64, checksum float64) {
	for _, c := range core {
		checksum += float64(c)
	}
	return int64(len(core)), checksum
}

// closeEnough is the float comparison every checksum and distance goes
// through: equal, or within 1e-9 relative.
func closeEnough(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}
