// Package partition shards a resolved CSR into k contiguous vertex ranges
// and reports the cut: which vertices are on a boundary and how many edge
// records cross one. The NDP placement model (ext04) places each range in
// its own memory vault and reads the plan to split local from remote
// misses (DESIGN.md §10).
//
// Split points are edge-balanced: each range holds close to |E|/k out-edge
// records, the work of the engine's edge-scanning loops.
//
// Partitions are contiguous in the view's dense index space on purpose:
// the ordering layer (internal/order) already co-locates related vertices
// on adjacent indices, so composing a locality permutation (the "cluster"
// strategy is designed for exactly this) and then greedy-chunking the
// index space yields connected, low-cut subgraphs without a separate
// graph-partitioning solver — and every per-partition structure stays a
// cheap [lo,hi) pair.
//
// Like internal/order, the package is dependency-free: planners see only
// the vertex count and the flat CSR arrays.
package partition

import "fmt"

// Mode selects how split points are chosen.
type Mode int

// EdgeBalanced picks split points so every partition holds close to |E|/k
// edge records — the right balance target for edge-dominated kernels (the
// engine's push/pull loops are O(edges scanned)). It is the only mode.
const EdgeBalanced Mode = 0

// String names the mode for flags and JSON records.
func (m Mode) String() string {
	if m == EdgeBalanced {
		return "edge"
	}
	return fmt.Sprintf("partition.Mode(%d)", int(m))
}

// Plan is a k-way contiguous partitioning of the dense vertex space
// [0,n), with its ownership map and cut.
type Plan struct {
	// K is the partition count (after clamping to at most n non-empty
	// ranges; a request larger than n yields K = max(n,1)).
	K int
	// Bounds has K+1 entries: partition p owns dense indices
	// [Bounds[p], Bounds[p+1]).
	Bounds []int32
	// Owner maps every dense index to its partition.
	Owner []int32
	// Boundary marks the vertices with at least one cross-partition edge
	// (outgoing or incoming).
	Boundary []bool
	// Edges is the per-partition count of out-edge records owned by the
	// partition's vertices (intra- and cross-partition alike).
	Edges []int64
	// CutEdges counts directed edge records whose endpoints live in
	// different partitions.
	CutEdges int64
}

// New plans a k-way partitioning over the resolved CSR. off/nbr are the
// forward (out-neighbor) arrays; inOff/inNbr are the reverse arrays used
// to mark vertices whose only cross-partition edges are incoming (pass
// the forward arrays again for undirected graphs — View does). k <= 0 is
// treated as 1; k > n is clamped. Split points are always edge-balanced:
// mode is unused (ROADMAP item 1 drops it with the benchmark's call).
func New(n int, off, nbr, inOff, inNbr []int32, k int, mode Mode) *Plan {
	bounds := edgeBounds(n, off, k)
	p := &Plan{
		K:        len(bounds) - 1,
		Bounds:   bounds,
		Owner:    make([]int32, n),
		Boundary: make([]bool, n),
		Edges:    make([]int64, len(bounds)-1),
	}
	for q := 0; q < p.K; q++ {
		for v := bounds[q]; v < bounds[q+1]; v++ {
			p.Owner[v] = int32(q)
		}
	}
	for q := 0; q < p.K; q++ {
		lo, hi := bounds[q], bounds[q+1]
		p.Edges[q] = int64(off[hi] - off[lo])
		local := int64(0)
		for u := lo; u < hi; u++ {
			for _, v := range nbr[off[u]:off[u+1]] {
				if v >= lo && v < hi {
					local++
				} else {
					p.Boundary[u] = true
				}
			}
		}
		p.CutEdges += p.Edges[q] - local
	}
	// A vertex whose cross edges are all incoming is boundary too: it
	// receives exchanged frontiers even though it never originates them.
	for u := int32(0); u < int32(n); u++ {
		if p.Boundary[u] {
			continue
		}
		ou := p.Owner[u]
		for _, v := range inNbr[inOff[u]:inOff[u+1]] {
			if p.Owner[v] != ou {
				p.Boundary[u] = true
				break
			}
		}
	}
	return p
}

// edgeBounds greedily chunks [0,n) so each partition's out-edge count
// approaches |E|/k: split point p is the smallest vertex whose cumulative
// edge count (off, an exclusive prefix sum by construction) reaches
// p*|E|/k. Each partition's edge count is then within one vertex degree
// of the target — the imbalance bound the property tests pin.
func edgeBounds(n int, off []int32, k int) []int32 {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k < 1 {
		return []int32{0, 0} // n == 0: one empty range
	}
	total := int64(off[n])
	bounds := make([]int32, k+1)
	v := int32(0)
	for p := 1; p < k; p++ {
		target := total * int64(p) / int64(k)
		for v < int32(n) && int64(off[v]) < target {
			v++
		}
		// Every partition keeps at least one vertex so ranges stay
		// non-empty and strictly increasing even on skewed graphs.
		if maxStart := int32(n - (k - p)); v > maxStart {
			v = maxStart
		}
		if lo := bounds[p-1] + 1; v < lo {
			v = lo
		}
		bounds[p] = v
	}
	bounds[k] = int32(n)
	return bounds
}

// Of returns the partition owning dense index v.
func (p *Plan) Of(v int32) int32 { return p.Owner[v] }

// Range returns the vertex range [lo,hi) of partition q.
func (p *Plan) Range(q int) (lo, hi int32) { return p.Bounds[q], p.Bounds[q+1] }

// BoundaryCount returns the number of boundary vertices.
func (p *Plan) BoundaryCount() int {
	c := 0
	for _, b := range p.Boundary {
		if b {
			c++
		}
	}
	return c
}

// Imbalance returns the max-over-mean ratio of the per-partition edge
// counts; 1.0 is perfect balance. Empty and edgeless plans report 1.0.
func (p *Plan) Imbalance() float64 {
	if p.K == 0 {
		return 1
	}
	var max, total float64
	for q := 0; q < p.K; q++ {
		c := float64(p.Edges[q])
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	return max / (total / float64(p.K))
}
