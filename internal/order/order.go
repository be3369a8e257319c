// Package order computes vertex-reordering permutations for the
// cache-locality layer (DESIGN.md §8). Graph workloads are memory-bound —
// the paper's central finding is that irregular neighbor access drives the
// LLC MPKI that dominates the cycle breakdown (§5, Figs 6-8) — and the
// dense vertex numbering a property.View hands to the frontier engine
// decides how that irregular traffic maps onto cache lines. Each strategy
// here takes the ID-sorted snapshot's resolved CSR arrays and returns a
// permutation that property.ViewWith composes into the view's dense space:
// hot vertices land on adjacent indices, so the distance arrays, frontier
// bitmaps and neighbor lists the engine streams stay resident.
//
// The package is dependency-free on purpose: strategies see only the
// vertex count and the flat NbrOff/Nbr arrays, and every function matches
// the property.OrderFunc signature directly.
//
// Strategies follow the degree-aware reordering literature (GAP benchmark
// suite; Balaji & Lucia, "When is Graph Reordering an Optimization?"):
//
//   - Degree: full degree-descending sort ("hub sort"). Strongest
//     clustering of hot vertices; destroys any pre-existing community
//     locality in the original numbering.
//   - Hub: hub clustering. Vertices with above-average degree are packed
//     first, both groups keeping their original relative order — most of
//     the hot-vertex clustering at a fraction of the disruption.
//   - RCM: reverse Cuthill-McKee. Per component, a BFS from a low-degree
//     seed visiting neighbors in ascending-degree order, reversed at the
//     end; minimizes index bandwidth so neighbor indices stay near their
//     sources (strong for meshes/roads and community graphs).
//   - Cluster: the partition-aware strategy — plain Cuthill-McKee visit
//     order (RCM without the final reversal). Each component's BFS tree
//     lands on one contiguous index run, so chunking the index space into
//     contiguous ranges (internal/partition) yields connected subgraphs
//     with small boundary sets.
//   - None: the identity (ID-sorted baseline).
package order

import (
	"fmt"
	"sort"
	"strings"
)

// Names lists the selectable strategies in flag/documentation order. It
// must stay in lockstep with the registry below; init panics on drift, so
// a strategy can never be selectable but unlisted (or listed but
// unselectable).
var Names = []string{"none", "degree", "hub", "rcm", "cluster"}

func init() {
	if len(Names) != len(registry) {
		panic("order: Names and registry drifted")
	}
	for _, n := range Names {
		if _, ok := registry[n]; !ok {
			panic("order: strategy " + n + " listed in Names but not registered")
		}
	}
}

// registry backs ByName. "none" maps to nil on purpose: callers pass the
// result straight to property.ViewOpts.Order, where nil selects the
// identity without a permutation pass.
var registry = map[string]func(n int, off, nbr []int32) []int32{
	"none":    nil,
	"degree":  Degree,
	"hub":     Hub,
	"rcm":     RCM,
	"cluster": Cluster,
}

// ByName maps a strategy name to its function. Unknown names return an
// error that lists every registered strategy, so flag typos on the CLIs
// surface the valid vocabulary instead of a bare failure.
func ByName(name string) (func(n int, off, nbr []int32) []int32, error) {
	if name == "" {
		return nil, nil
	}
	if fn, ok := registry[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("order: unknown strategy %q (valid strategies: %s)", name, strings.Join(Names, ", "))
}

// FlagUsage renders the strategy vocabulary for CLI -order usage strings,
// derived from Names so flag help can never drift from the registry.
func FlagUsage() string { return strings.Join(Names, "|") }

// None returns the identity permutation.
func None(n int, off, nbr []int32) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// Degree returns the degree-descending hub sort: perm[new] = old, sorted
// by resolved out-degree descending, ties broken by ascending old index so
// the permutation is deterministic.
func Degree(n int, off, nbr []int32) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		da := off[perm[a]+1] - off[perm[a]]
		db := off[perm[b]+1] - off[perm[b]]
		if da != db {
			return da > db
		}
		return perm[a] < perm[b]
	})
	return perm
}

// Hub returns the hub-clustering permutation: vertices whose degree
// exceeds the average are packed first, the tail follows, and both groups
// keep their original relative order. Sequential scans over the hub block
// touch the vertices that appear in most adjacency lists.
func Hub(n int, off, nbr []int32) []int32 {
	perm := make([]int32, 0, n)
	if n == 0 {
		return perm
	}
	avg := float64(off[n]) / float64(n)
	for i := 0; i < n; i++ {
		if float64(off[i+1]-off[i]) > avg {
			perm = append(perm, int32(i))
		}
	}
	for i := 0; i < n; i++ {
		if float64(off[i+1]-off[i]) <= avg {
			perm = append(perm, int32(i))
		}
	}
	return perm
}

// RCM returns the reverse Cuthill-McKee ordering. Components are seeded in
// ascending (degree, index) order — the classic low-degree pseudo-
// peripheral heuristic — and each BFS enqueues neighbors in ascending
// (degree, index) order; the concatenated visit order is reversed at the
// end. The result is deterministic for a given CSR.
func RCM(n int, off, nbr []int32) []int32 {
	perm := cuthillMcKee(n, off, nbr)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Cluster returns the plain Cuthill-McKee visit order — RCM without the
// final reversal. Unlike RCM (whose reversal interleaves the tail of one
// component's BFS with the head of the next for bandwidth reasons), the
// raw visit order keeps every component, and every BFS expansion ring
// within it, on one contiguous index run. That is the property the
// partition layer wants: greedy contiguous chunking of a cluster-ordered
// view produces connected subgraphs whose cut edges are only the BFS
// frontier straddling a chunk border.
func Cluster(n int, off, nbr []int32) []int32 {
	return cuthillMcKee(n, off, nbr)
}

// cuthillMcKee is the shared BFS walk behind RCM and Cluster: components
// seeded in ascending (degree, index) order, neighbors enqueued in
// ascending (degree, index) order, visit order returned unreversed.
func cuthillMcKee(n int, off, nbr []int32) []int32 {
	deg := func(i int32) int32 { return off[i+1] - off[i] }
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.Slice(seeds, func(a, b int) bool {
		da, db := deg(seeds[a]), deg(seeds[b])
		if da != db {
			return da < db
		}
		return seeds[a] < seeds[b]
	})

	perm := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	scratch := make([]int32, 0, 64)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for qh := 0; qh < len(queue); qh++ {
			u := queue[qh]
			perm = append(perm, u)
			scratch = append(scratch[:0], nbr[off[u]:off[u+1]]...)
			sort.Slice(scratch, func(a, b int) bool {
				da, db := deg(scratch[a]), deg(scratch[b])
				if da != db {
					return da < db
				}
				return scratch[a] < scratch[b]
			})
			for _, v := range scratch {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return perm
}
