package partition

import (
	"math/rand"
	"testing"
)

// randCSR builds a random directed CSR over n vertices plus its reverse
// arrays, the same inputs property.View hands to New.
func randCSR(r *rand.Rand, n, m int) (off, nbr, inOff, inNbr []int32) {
	edges := make([][2]int32, m)
	for i := range edges {
		edges[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	return buildCSR(n, edges)
}

// buildCSR lays the edges out as a forward CSR, each row in the order the
// edges came, and reverses it: in-neighbors in ascending order, as
// property.View leaves them.
func buildCSR(n int, edges [][2]int32) (off, nbr, inOff, inNbr []int32) {
	off, inOff = make([]int32, n+1), make([]int32, n+1)
	for _, e := range edges {
		off[e[0]+1]++
		inOff[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
		inOff[i+1] += inOff[i]
	}
	nbr, inNbr = make([]int32, len(edges)), make([]int32, len(edges))
	fill := make([]int32, n)
	for _, e := range edges {
		nbr[off[e[0]]+fill[e[0]]] = e[1]
		fill[e[0]]++
	}
	clear(fill)
	for u := 0; u < n; u++ {
		for _, v := range nbr[off[u]:off[u+1]] {
			inNbr[inOff[v]+fill[v]] = int32(u)
			fill[v]++
		}
	}
	return off, nbr, inOff, inNbr
}

// TestPlanDisjointCover pins the first partitioner invariant: for every k,
// the ranges are a disjoint cover of [0,n) and Owner agrees with Bounds
// everywhere.
func TestPlanDisjointCover(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(300)
		m := r.Intn(6 * n)
		off, nbr, inOff, inNbr := randCSR(r, n, m)
		for _, k := range []int{1, 2, 3, 7, n, n + 5} {
			p := New(n, off, nbr, inOff, inNbr, k, EdgeBalanced)
			if p.K < 1 || p.K > n {
				t.Fatalf("n=%d k=%d: got K=%d", n, k, p.K)
			}
			if len(p.Bounds) != p.K+1 || p.Bounds[0] != 0 || p.Bounds[p.K] != int32(n) {
				t.Fatalf("n=%d k=%d: bounds %v do not cover [0,%d)", n, k, p.Bounds, n)
			}
			for q := 0; q < p.K; q++ {
				if p.Bounds[q] >= p.Bounds[q+1] {
					t.Fatalf("n=%d k=%d: empty or inverted partition %d: %v", n, k, q, p.Bounds)
				}
				for v := p.Bounds[q]; v < p.Bounds[q+1]; v++ {
					if p.Owner[v] != int32(q) {
						t.Fatalf("Owner[%d]=%d, want %d", v, p.Owner[v], q)
					}
				}
			}
		}
	}
}

// TestEdgeBalanceTolerance pins the greedy chunker's imbalance bound:
// every partition's edge count stays within one maximum vertex degree of
// the |E|/k target (the split point can overshoot the ideal boundary by
// at most the degree of the vertex it lands on), except for partitions
// the non-empty-range clamp squeezed to a single vertex. It also pins
// edgeBounds's definition, which the bound alone cannot tell from a split
// one vertex late: split point p is the smallest vertex v with
// off[v] >= p*|E|/k, moved only by the clamp that leaves every partition
// at least one vertex.
func TestEdgeBalanceTolerance(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 50 + r.Intn(300)
		m := n + r.Intn(8*n)
		off, nbr, inOff, inNbr := randCSR(r, n, m)
		maxDeg := int64(0)
		for u := 0; u < n; u++ {
			if d := int64(off[u+1] - off[u]); d > maxDeg {
				maxDeg = d
			}
		}
		for _, k := range []int{2, 3, 5, 8} {
			p := New(n, off, nbr, inOff, inNbr, k, EdgeBalanced)
			target := int64(off[n])/int64(p.K) + 1
			for q := 0; q < p.K; q++ {
				if p.Bounds[q+1]-p.Bounds[q] == 1 {
					continue // clamped to keep the range non-empty
				}
				if p.Edges[q] > target+maxDeg {
					t.Fatalf("n=%d m=%d k=%d: partition %d holds %d edges, tolerance %d (target %d + maxdeg %d)",
						n, m, k, q, p.Edges[q], target+maxDeg, target, maxDeg)
				}
			}
			for q := 1; q < p.K; q++ {
				split := int64(off[n]) * int64(q) / int64(p.K)
				want := int32(0)
				for want < int32(n) && int64(off[want]) < split {
					want++
				}
				want = min(want, int32(n-(p.K-q)))
				want = max(want, p.Bounds[q-1]+1)
				if p.Bounds[q] != want {
					t.Fatalf("n=%d m=%d k=%d: split point %d is vertex %d, want %d (first vertex with off >= %d)",
						n, m, k, q, p.Bounds[q], want, split)
				}
			}
		}
	}
}

// TestBoundaryExact pins the boundary-set invariant: Boundary[v] holds
// exactly when v has an out- or in-edge whose other endpoint lives in a
// different partition.
func TestBoundaryExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(200)
		m := r.Intn(5 * n)
		off, nbr, inOff, inNbr := randCSR(r, n, m)
		for _, k := range []int{1, 2, 4, 9} {
			p := New(n, off, nbr, inOff, inNbr, k, EdgeBalanced)
			cut := int64(0)
			for u := int32(0); u < int32(n); u++ {
				want := false
				for _, v := range nbr[off[u]:off[u+1]] {
					if p.Owner[v] != p.Owner[u] {
						want = true
						cut++
					}
				}
				for _, v := range inNbr[inOff[u]:inOff[u+1]] {
					if p.Owner[v] != p.Owner[u] {
						want = true
					}
				}
				if p.Boundary[u] != want {
					t.Fatalf("n=%d k=%d: Boundary[%d]=%v, want %v", n, k, u, p.Boundary[u], want)
				}
			}
			if p.CutEdges != cut {
				t.Fatalf("n=%d k=%d: CutEdges=%d, want %d", n, k, p.CutEdges, cut)
			}
			if k == 1 && (p.CutEdges != 0 || p.BoundaryCount() != 0) {
				t.Fatalf("k=1 must have no cut: cut=%d boundary=%d", p.CutEdges, p.BoundaryCount())
			}
		}
	}
}

// TestPerPartitionEdgeAccounting cross-checks Edges/CutEdges.
func TestPerPartitionEdgeAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	n := 120
	off, nbr, inOff, inNbr := randCSR(r, n, 700)
	p := New(n, off, nbr, inOff, inNbr, 5, EdgeBalanced)
	var edges, cut int64
	for q := 0; q < p.K; q++ {
		edges += p.Edges[q]
		lo, hi := p.Range(q)
		for u := lo; u < hi; u++ {
			for _, v := range nbr[off[u]:off[u+1]] {
				if v < lo || v >= hi {
					cut++
				}
			}
		}
	}
	if edges != int64(off[n]) {
		t.Fatalf("sum Edges = %d, want %d", edges, off[n])
	}
	if cut != p.CutEdges {
		t.Fatalf("cross-partition edge records = %d, want CutEdges %d", cut, p.CutEdges)
	}
	if p.Imbalance() < 1 {
		t.Fatalf("imbalance %v < 1", p.Imbalance())
	}
}

// TestModeNames pins the names the plan's Mode prints under, an unknown
// value included.
func TestModeNames(t *testing.T) {
	for m, want := range map[Mode]string{EdgeBalanced: "edge", 7: "partition.Mode(7)"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestEmptyAndTiny(t *testing.T) {
	p := New(0, []int32{0}, nil, []int32{0}, nil, 4, EdgeBalanced)
	if p.K != 1 || p.Bounds[0] != 0 || p.Bounds[1] != 0 {
		t.Fatalf("empty graph plan: %+v", p)
	}
	p = New(1, []int32{0, 0}, nil, []int32{0, 0}, nil, 8, EdgeBalanced)
	if p.K != 1 || p.Bounds[1] != 1 {
		t.Fatalf("single-vertex plan: %+v", p)
	}
}

// FuzzPartitionPlan decodes small adversarial graphs — no vertices, no
// edges, every edge on one hub, more partitions asked for than vertices,
// none or a negative number asked for — and checks a plan against counts
// made edge by edge: the ranges tile [0,n) with no empty one, Owner
// follows them, and CutEdges, Boundary and Edges are what a walk over the
// edge list finds.
func FuzzPartitionPlan(f *testing.F) {
	f.Add([]byte{0, 3})                                     // empty graph
	f.Add([]byte{8, 3})                                     // isolated vertices
	f.Add([]byte{9, 4, 0, 1, 0, 2, 0, 3, 0, 4, 5, 0, 0, 0}) // one hub, a self loop
	f.Add([]byte{3, 40, 0, 1, 1, 2, 2, 0})                  // k > n
	f.Add([]byte{5, 0xff, 0, 4, 4, 0})                      // k < 0
	f.Add([]byte{33, 7, 1, 32, 32, 1, 16, 17, 17, 16, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := int(data[0])%41, int(int8(data[1]))
		var edges [][2]int32
		if n > 0 {
			for i := 2; i+1 < len(data); i += 2 {
				edges = append(edges, [2]int32{int32(int(data[i]) % n), int32(int(data[i+1]) % n)})
			}
		}
		off, nbr, inOff, inNbr := buildCSR(n, edges)
		p := New(n, off, nbr, inOff, inNbr, k, EdgeBalanced)
		if want := max(1, min(k, n)); p.K != want || len(p.Bounds) != want+1 {
			t.Fatalf("n=%d k=%d: K=%d with %d bounds, want %d", n, k, p.K, len(p.Bounds), want)
		}
		if p.Bounds[0] != 0 || p.Bounds[p.K] != int32(n) {
			t.Fatalf("n=%d k=%d: bounds %v do not span [0,%d)", n, k, p.Bounds, n)
		}
		for q := 0; q < p.K; q++ {
			lo, hi := p.Range(q)
			if n > 0 && lo >= hi {
				t.Fatalf("n=%d k=%d: partition %d is [%d,%d)", n, k, q, lo, hi)
			}
			for v := lo; v < hi; v++ {
				if p.Of(v) != int32(q) {
					t.Fatalf("n=%d k=%d: Owner[%d]=%d inside partition %d", n, k, v, p.Of(v), q)
				}
			}
		}
		var cut int64
		boundary := make([]bool, n)
		owned := make([]int64, p.K)
		for _, e := range edges {
			qu, qv := p.Owner[e[0]], p.Owner[e[1]]
			owned[qu]++
			if qu != qv {
				cut++
				boundary[e[0]], boundary[e[1]] = true, true
			}
		}
		nb := 0
		for v, b := range boundary {
			if p.Boundary[v] != b {
				t.Fatalf("n=%d k=%d: Boundary[%d]=%v, an edge walk says %v", n, k, v, p.Boundary[v], b)
			}
			if b {
				nb++
			}
		}
		if p.CutEdges != cut || p.BoundaryCount() != nb {
			t.Fatalf("n=%d k=%d: CutEdges=%d BoundaryCount=%d, an edge walk says %d and %d", n, k, p.CutEdges, p.BoundaryCount(), cut, nb)
		}
		for q := range owned {
			if p.Edges[q] != owned[q] {
				t.Fatalf("n=%d k=%d: partition %d holds %d edges; an edge walk says %d", n, k, q, p.Edges[q], owned[q])
			}
		}
	})
}

// TestImbalanceCountsEdges measures a plan by its edge counts. Every edge
// of a four-vertex graph leaves vertex 0: split in two, the vertex counts
// are even but one partition holds all the edges.
func TestImbalanceCountsEdges(t *testing.T) {
	off := []int32{0, 6, 6, 6, 6}
	nbr := []int32{1, 2, 3, 1, 2, 3}
	if p := New(4, off, nbr, off, nbr, 2, EdgeBalanced); p.K != 2 || p.Imbalance() != 2 {
		t.Errorf("K=%d bounds %v, imbalance %v, want 2", p.K, p.Bounds, p.Imbalance())
	}
	if got := New(0, []int32{0}, nil, []int32{0}, nil, 3, EdgeBalanced).Imbalance(); got != 1 {
		t.Errorf("empty plan: imbalance %v, want 1", got)
	}
	if got := New(3, []int32{0, 0, 0, 0}, nil, []int32{0, 0, 0, 0}, nil, 3, EdgeBalanced).Imbalance(); got != 1 {
		t.Errorf("edgeless plan: imbalance %v, want 1", got)
	}
}
