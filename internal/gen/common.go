// Package gen synthesizes the five GraphBIG datasets (paper Tables 5 and 7)
// plus auxiliary structures (layered DAGs, R-MAT graphs). The proprietary
// inputs (Twitter crawl, IBM Knowledge Repo, IBM Watson Gene graph) are
// replaced by generators that reproduce the topological signatures the
// paper's analysis depends on; see DESIGN.md §2 for the substitution table.
//
// All generators are deterministic in (size, seed): per-vertex RNG streams
// are derived from the seed and the vertex id, and Build hands the sorted
// edge list to property.Bulk, whose result is the single-goroutine build
// whatever the worker count: the emitted graph, down to the order inside
// every adjacency list, does not depend on worker count.
package gen

import (
	"math"
	"math/rand/v2"
	"slices"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// pack encodes a directed edge (u -> v) as a sortable uint64.
func pack(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// packUndirected canonicalizes so each undirected pair packs identically.
func packUndirected(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return pack(u, v)
}

func unpack(e uint64) (u, v int32) {
	return int32(uint32(e >> 32)), int32(uint32(e))
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// edgeWeight derives a deterministic weight in [1,100] for an edge, so
// repeated generations agree and SPath has non-trivial weights.
func edgeWeight(u, v int32) float64 {
	return float64(1 + mix(pack(u, v))%100)
}

// powerlaw samples a discrete power-law value in [xmin, cap] with exponent
// alpha (>1) by inverse transform on the continuous Pareto distribution.
func powerlaw(r *rand.Rand, xmin, cap int, alpha float64) int {
	if cap <= xmin {
		return xmin
	}
	u := r.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	x := float64(xmin) * math.Pow(u, -1/(alpha-1))
	if x > float64(cap) {
		return cap
	}
	return int(x)
}

// zipfRank maps a uniform sample to a rank in [0,n) with probability
// decaying as roughly rank^-skew (skew in (0,1]; larger = more skewed).
func zipfRank(r *rand.Rand, n int, skew float64) int32 {
	u := r.Float64()
	x := math.Pow(u, 1/(1-skew*0.999)) // concentrates mass near rank 0
	i := int32(x * float64(n))
	if i >= int32(n) {
		i = int32(n) - 1
	}
	return i
}

// BuildOpts configures edge-list materialization into a property graph.
type BuildOpts struct {
	Directed bool
	TrackIn  bool
	Schema   *property.Schema
	Workers  int
}

// Build materializes v vertices (IDs 0..v-1) and the packed edge list into
// a property graph. The list is sorted and de-duplicated first; self loops
// are dropped. Edge weights are derived deterministically from endpoints.
// The graph is what one goroutine adding the vertices and then the sorted
// edges would build, at every worker count (property.Bulk).
func Build(v int, edges []uint64, o BuildOpts) *property.Graph {
	slices.Sort(edges)
	w := 0
	var prev uint64
	for i, e := range edges {
		if i > 0 && e == prev {
			continue
		}
		prev = e
		a, b := unpack(e)
		if a == b {
			continue
		}
		edges[w] = e
		w++
	}
	return property.Bulk(property.Options{
		Directed:     o.Directed,
		TrackInEdges: o.TrackIn,
		Schema:       o.Schema,
		Hint:         v,
	}, packedEdges{v, edges[:w]}, o.Workers)
}

// packedEdges hands Build's sorted list to property.Bulk as it is: dense
// IDs are their own indices and weights are recomputed as each block is
// unpacked, so nothing is copied.
type packedEdges struct {
	v     int
	edges []uint64
}

func (p packedEdges) NumVertices() int           { return p.v }
func (p packedEdges) ID(i int) property.VertexID { return property.VertexID(i) }
func (p packedEdges) NumEdges() int              { return len(p.edges) }

func (p packedEdges) Edges(e int, buf []property.BulkEdge) []property.BulkEdge {
	buf = buf[:min(len(buf), len(p.edges)-e)]
	for k := range buf {
		u, v := unpack(p.edges[e+k])
		buf[k] = property.BulkEdge{Src: u, Dst: v, W: edgeWeight(u, v)}
	}
	return buf
}

// perVertexEdges runs emit for every vertex with its deterministic RNG and
// concatenates the produced packed edges. emit must only append.
func perVertexEdges(v int, seed int64, workers int, perVertexCap int, emit func(r *rand.Rand, u int32, out []uint64) []uint64) []uint64 {
	workers = concurrent.Workers(workers)
	if workers > v {
		workers = v
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (v + workers - 1) / workers
	parts := make([][]uint64, workers)
	concurrent.ParallelRange(v, workers, func(s, e int) {
		buf := make([]uint64, 0, (e-s)*perVertexCap/2+16)
		// Every vertex has its own deterministic stream, a PCG seeded from
		// (seed, vertex); one generator per worker is re-seeded to it, which
		// gives the stream of a fresh one without two allocations a vertex.
		src := new(rand.PCG)
		r := rand.New(src)
		for i := s; i < e; i++ {
			src.Seed(uint64(seed), uint64(i)*0x9e3779b97f4a7c15+1)
			buf = emit(r, int32(i), buf)
		}
		parts[s/chunk] = buf // chunked ranges start at multiples of chunk
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]uint64, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}
