package engine

import (
	"fmt"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Graph shapes for the serial/parallel seam: what matters about each is
// the out-degree sum of its BFS levels relative to serialGrain.

// build makes an undirected graph on IDs 0..n-1 from an edge emitter,
// through the generators' bulk path: the bicliques and cliques here are a
// few hundred thousand edges each, and the race detector makes one
// AddEdge at a time cost seconds.
func build(n int, edges func(add func(u, v int))) *property.Graph {
	var packed []uint64
	edges(func(u, v int) { packed = append(packed, uint64(u)<<32|uint64(v)) })
	return gen.Build(n, packed, gen.BuildOpts{})
}

// biclique joins every vertex of [0,a) to every vertex of [a,a+b). From
// source 0 the levels are {0}, the b side and the rest of the a side, so
// the widest round makes exactly a*b edge visits on a graph of a+b
// vertices — a star's straddle of the floor without a quarter of a million
// leaves.
func biclique(a, b int) *property.Graph {
	return build(a+b, func(add func(u, v int)) {
		for u := 0; u < a; u++ {
			for v := a; v < a+b; v++ {
				add(u, v)
			}
		}
	})
}

// grid is a w x h lattice: a level holds at most w+h vertices of degree
// at most 4.
func grid(w, h int) *property.Graph {
	return build(w*h, func(add func(u, v int)) {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					add(y*w+x, y*w+x+1)
				}
				if y+1 < h {
					add(y*w+x, (y+1)*w+x)
				}
			}
		}
	})
}

// addClique joins every pair of vertices in [lo, lo+k).
func addClique(add func(u, v int), lo, k int) {
	for u := lo; u < lo+k; u++ {
		for v := u + 1; v < lo+k; v++ {
			add(u, v)
		}
	}
}

// lollipop is a k-clique on [0,k) with a path of `path` vertices hanging
// off vertex k-1. With tail set, a second k-clique closes the far end of
// the path, so one traversal crosses the floor three times: the first
// clique's level is above it, the path below, the second clique's above.
func lollipop(k, path int, tail bool) *property.Graph {
	n := k + path
	if tail {
		n += k
	}
	return build(n, func(add func(u, v int)) {
		addClique(add, 0, k)
		for i := 0; i < path; i++ {
			add(k-1+i, k+i)
		}
		if tail {
			add(k+path-1, k+path)
			addClique(add, k+path, k)
		}
	})
}

// seamClique sizes the lollipops' cliques: from a source inside one, the
// next level is seamClique-1 vertices of at least that degree, which must
// be more edge visits than serialGrain (TestTraverseSerialParallelSeam
// checks that it still is).
const seamClique = 514

// seamRun is everything the seam test compares between two traversals.
type seamRun struct {
	dist, labels []int32
	st           Stats
}

func traverseSeam(g *property.Graph, vw *property.View, workers int, noPull bool, src int32) seamRun {
	e := New(g, vw, workers)
	r := seamRun{dist: newDist(e.N()), labels: newDist(e.N())}
	r.dist[src] = 0
	r.labels[src] = 7
	r.st = e.Traverse(&Spec{
		Dist:   r.dist,
		Label:  7,
		Labels: r.labels,
		NoPull: noPull,
	}, src)
	return r
}

// serialLevels counts, from a finished traversal's levels, the rounds
// whose frontier held at most serialGrain edge visits: round r expands
// the vertices at level r-1, and the last round expands the deepest level
// to find nothing.
func serialLevels(vw *property.View, dist []int32, depth int32) int {
	scout := make([]int64, depth+1)
	for v, d := range dist {
		if d >= 0 {
			scout[d] += int64(vw.Degree(int32(v)))
		}
	}
	serial := 0
	for _, s := range scout {
		if s <= serialGrain {
			serial++
		}
	}
	return serial
}

// TestTraverseSerialParallelSeam holds every mix of serial and forked
// rounds to one reference — a NoPull traversal on one worker, which is
// the sequential loop from start to finish — and holds SerialRounds to
// what the shape of the graph dictates.
func TestTraverseSerialParallelSeam(t *testing.T) {
	if (seamClique-1)*(seamClique-1) <= serialGrain || 512*512 != serialGrain {
		t.Fatal("serialGrain moved; resize seamClique and the bicliques")
	}
	cases := []struct {
		name string
		g    *property.Graph
		// serial is the SerialRounds a forking NoPull run must report, or
		// -1 to take it from serialLevels alone.
		serial int
		// straddles marks a generated graph that is here because some of
		// its levels sit on each side of the floor.
		straddles bool
	}{
		// Widest round one visit short of the floor, on it, one past it:
		// 511*513, 512*512 and 481*545 are serialGrain-1, +0 and +1.
		{"biclique/grain-1", biclique(511, 513), 3, false},
		{"biclique/grain", biclique(512, 512), 3, false},
		{"biclique/grain+1", biclique(481, 545), 2, true},
		{"chain", chain(300), 300, false},
		{"grid", grid(40, 25), -1, false},
		{"ldbc", gen.LDBC(12000, 9, 1), -1, true},
		// Source 0 alone, then the clique level, then the path.
		{"lollipop", lollipop(seamClique, 200, false), 1 + 200, true},
		// The same, then the far attachment vertex and the far clique.
		{"lollipop/two-ended", lollipop(seamClique, 200, true), 1 + 200 + 1, true},
	}
	for _, tc := range cases {
		vw := tc.g.View()
		src := vw.IndexOf(0)
		ref := traverseSeam(tc.g, vw, 1, true, src)
		if ref.st.SerialRounds != ref.st.PushRounds || ref.st.PullRounds != 0 {
			t.Fatalf("%s: reference is not the sequential loop: %+v", tc.name, ref.st)
		}
		want := serialLevels(vw, ref.dist, ref.st.Depth)
		if tc.serial >= 0 && tc.serial != want {
			t.Fatalf("%s: the levels give %d rounds at or below the floor, the shape says %d", tc.name, want, tc.serial)
		}
		if tc.straddles && (want == 0 || want == ref.st.PushRounds) {
			t.Fatalf("%s: %d of %d rounds below the floor; the graph no longer straddles it", tc.name, want, ref.st.PushRounds)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			for _, noPull := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/noPull=%v", tc.name, workers, noPull)
				got := traverseSeam(tc.g, vw, workers, noPull, src)
				if got.st.Reached != ref.st.Reached || got.st.Depth != ref.st.Depth {
					t.Errorf("%s: stats %+v, reference %+v", name, got.st, ref.st)
				}
				for v := range ref.dist {
					if got.dist[v] != ref.dist[v] || got.labels[v] != ref.labels[v] {
						t.Fatalf("%s: vertex %d: dist %d label %d, reference dist %d label %d",
							name, v, got.dist[v], got.labels[v], ref.dist[v], ref.labels[v])
					}
				}
				st := got.st
				switch {
				case workers == 1:
					if st.SerialRounds != st.PushRounds {
						t.Errorf("%s: one worker forked: %+v", name, st)
					}
				case noPull:
					if st.SerialRounds != want || st.PushRounds != ref.st.PushRounds {
						t.Errorf("%s: SerialRounds %d of %d push rounds, want %d of %d", name, st.SerialRounds, st.PushRounds, want, ref.st.PushRounds)
					}
				default:
					// Which levels the pull phase took is the Alpha test's
					// business; the push rounds that remain still obey the
					// floor, so no more of them fork than levels exceed it.
					if forked := st.PushRounds - st.SerialRounds; forked < 0 || forked > ref.st.PushRounds-want {
						t.Errorf("%s: %d push rounds forked, at most %d levels exceed the floor: %+v", name, forked, ref.st.PushRounds-want, st)
					}
				}
			}
		}
	}
}

// TestTraversePullPhaseHandsBackToPush is the regression test for the
// direction switch: a dense core sends the traversal into its pull phase,
// and the long whisker behind it must then run as push rounds. Before the
// fix every whisker round re-entered pull and scanned all n vertices.
func TestTraversePullPhaseHandsBackToPush(t *testing.T) {
	const core, whisker = 2000, 1000
	g := gen.LDBC(core, 7, 0)
	for i := 0; i < whisker; i++ {
		g.AddVertex(property.VertexID(core + i))
		if err := g.AddEdge(property.VertexID(core+i-1), property.VertexID(core+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	vw := g.View()
	src := vw.IndexOf(0)
	for _, workers := range []int{1, 4} {
		e := New(g, vw, workers)
		push := newDist(e.N())
		push[src] = 0
		pst := e.Traverse(&Spec{Dist: push, NoPull: true}, src)

		dist := newDist(e.N())
		dist[src] = 0
		st := e.Traverse(&Spec{Dist: dist}, src)
		for i := range push {
			if dist[i] != push[i] {
				t.Fatalf("workers=%d: dist[%d] = %d, NoPull run %d", workers, i, dist[i], push[i])
			}
		}
		if st.Reached != pst.Reached || st.Depth != pst.Depth || st.PushRounds+st.PullRounds != pst.PushRounds {
			t.Errorf("workers=%d: stats %+v, NoPull run %+v", workers, st, pst)
		}
		coreDepth := int32(0)
		for id := 0; id < core; id++ {
			if d := push[vw.IndexOf(property.VertexID(id))]; d > coreDepth {
				coreDepth = d
			}
		}
		if int(st.Depth) < whisker {
			t.Fatalf("workers=%d: depth %d; the whisker was not traversed", workers, st.Depth)
		}
		// Past the core's last level a pull round wakes one vertex, far
		// below n/Beta, so the phase ends there at the latest.
		if st.PullRounds == 0 || st.PullRounds > int(coreDepth)+1 {
			t.Errorf("workers=%d: %d pull rounds for a core of depth %d: %+v", workers, st.PullRounds, coreDepth, st)
		}
	}
}
