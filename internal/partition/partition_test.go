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

// TestPlanDisjointCover pins the first partitioner invariant: for every
// mode and k, the ranges are a disjoint cover of [0,n) and Owner agrees
// with Bounds everywhere.
func TestPlanDisjointCover(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(300)
		m := r.Intn(6 * n)
		off, nbr, inOff, inNbr := randCSR(r, n, m)
		for _, mode := range []Mode{EdgeBalanced, VertexBalanced} {
			for _, k := range []int{1, 2, 3, 7, n, n + 5} {
				p := New(n, off, nbr, inOff, inNbr, k, mode)
				if p.K < 1 || p.K > n {
					t.Fatalf("n=%d k=%d mode=%v: got K=%d", n, k, mode, p.K)
				}
				if len(p.Bounds) != p.K+1 || p.Bounds[0] != 0 || p.Bounds[p.K] != int32(n) {
					t.Fatalf("n=%d k=%d mode=%v: bounds %v do not cover [0,%d)", n, k, mode, p.Bounds, n)
				}
				for q := 0; q < p.K; q++ {
					if p.Bounds[q] >= p.Bounds[q+1] {
						t.Fatalf("n=%d k=%d mode=%v: empty or inverted partition %d: %v", n, k, mode, q, p.Bounds)
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
}

// TestEdgeBalanceTolerance pins the greedy chunker's imbalance bound:
// every partition's edge count stays within one maximum vertex degree of
// the |E|/k target (the split point can overshoot the ideal boundary by
// at most the degree of the vertex it lands on), except for partitions
// the non-empty-range clamp squeezed to a single vertex.
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
				if p.Len(q) == 1 {
					continue // clamped to keep the range non-empty
				}
				if p.Edges[q] > target+maxDeg {
					t.Fatalf("n=%d m=%d k=%d: partition %d holds %d edges, tolerance %d (target %d + maxdeg %d)",
						n, m, k, q, p.Edges[q], target+maxDeg, target, maxDeg)
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
		for _, mode := range []Mode{EdgeBalanced, VertexBalanced} {
			for _, k := range []int{1, 2, 4, 9} {
				p := New(n, off, nbr, inOff, inNbr, k, mode)
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
						t.Fatalf("n=%d k=%d mode=%v: Boundary[%d]=%v, want %v", n, k, mode, u, p.Boundary[u], want)
					}
				}
				if p.CutEdges != cut {
					t.Fatalf("n=%d k=%d mode=%v: CutEdges=%d, want %d", n, k, mode, p.CutEdges, cut)
				}
				if k == 1 && (p.CutEdges != 0 || p.BoundaryCount() != 0) {
					t.Fatalf("k=1 must have no cut: cut=%d boundary=%d", p.CutEdges, p.BoundaryCount())
				}
			}
		}
	}
}

// TestPerPartitionEdgeAccounting cross-checks Edges/LocalEdges/CutEdges.
func TestPerPartitionEdgeAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	n := 120
	off, nbr, inOff, inNbr := randCSR(r, n, 700)
	p := New(n, off, nbr, inOff, inNbr, 5, EdgeBalanced)
	var edges, local int64
	for q := 0; q < p.K; q++ {
		edges += p.Edges[q]
		local += p.LocalEdges[q]
	}
	if edges != int64(off[n]) {
		t.Fatalf("sum Edges = %d, want %d", edges, off[n])
	}
	if edges-local != p.CutEdges {
		t.Fatalf("edges-local = %d, want CutEdges %d", edges-local, p.CutEdges)
	}
	if p.Imbalance() < 1 {
		t.Fatalf("imbalance %v < 1", p.Imbalance())
	}
}

func TestModeByName(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{{"", EdgeBalanced, true}, {"edge", EdgeBalanced, true}, {"vertex", VertexBalanced, true}, {"metis", 0, false}} {
		m, err := ModeByName(tc.in)
		if (err == nil) != tc.ok || (tc.ok && m != tc.want) {
			t.Fatalf("ModeByName(%q) = %v, %v", tc.in, m, err)
		}
	}
	if EdgeBalanced.String() != "edge" || VertexBalanced.String() != "vertex" {
		t.Fatal("mode names drifted")
	}
}

func TestEmptyAndTiny(t *testing.T) {
	p := New(0, []int32{0}, nil, []int32{0}, nil, 4, EdgeBalanced)
	if p.K != 1 || p.Bounds[0] != 0 || p.Bounds[1] != 0 {
		t.Fatalf("empty graph plan: %+v", p)
	}
	p = New(1, []int32{0, 0}, nil, []int32{0, 0}, nil, 8, VertexBalanced)
	if p.K != 1 || p.Len(0) != 1 {
		t.Fatalf("single-vertex plan: %+v", p)
	}
}

// FuzzPartitionPlan decodes small adversarial graphs — no vertices, no
// edges, every edge on one hub, more partitions asked for than vertices,
// none or a negative number asked for — and checks a plan in both modes
// against counts made edge by edge: the ranges tile [0,n) with no empty
// one, Owner follows them, and CutEdges, Boundary, Edges and LocalEdges
// are what a walk over the edge list finds.
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
		for _, mode := range []Mode{EdgeBalanced, VertexBalanced} {
			p := New(n, off, nbr, inOff, inNbr, k, mode)
			if want := max(1, min(k, n)); p.K != want || len(p.Bounds) != want+1 {
				t.Fatalf("n=%d k=%d %v: K=%d with %d bounds, want %d", n, k, mode, p.K, len(p.Bounds), want)
			}
			if p.Bounds[0] != 0 || p.Bounds[p.K] != int32(n) {
				t.Fatalf("n=%d k=%d %v: bounds %v do not span [0,%d)", n, k, mode, p.Bounds, n)
			}
			for q := 0; q < p.K; q++ {
				lo, hi := p.Range(q)
				if n > 0 && lo >= hi {
					t.Fatalf("n=%d k=%d %v: partition %d is [%d,%d)", n, k, mode, q, lo, hi)
				}
				for v := lo; v < hi; v++ {
					if p.Of(v) != int32(q) {
						t.Fatalf("n=%d k=%d %v: Owner[%d]=%d inside partition %d", n, k, mode, v, p.Of(v), q)
					}
				}
			}
			var cut int64
			boundary := make([]bool, n)
			owned, local := make([]int64, p.K), make([]int64, p.K)
			for _, e := range edges {
				qu, qv := p.Owner[e[0]], p.Owner[e[1]]
				owned[qu]++
				if qu == qv {
					local[qu]++
				} else {
					cut++
					boundary[e[0]], boundary[e[1]] = true, true
				}
			}
			nb := 0
			for v, b := range boundary {
				if p.Boundary[v] != b {
					t.Fatalf("n=%d k=%d %v: Boundary[%d]=%v, an edge walk says %v", n, k, mode, v, p.Boundary[v], b)
				}
				if b {
					nb++
				}
			}
			if p.CutEdges != cut || p.BoundaryCount() != nb {
				t.Fatalf("n=%d k=%d %v: CutEdges=%d BoundaryCount=%d, an edge walk says %d and %d", n, k, mode, p.CutEdges, p.BoundaryCount(), cut, nb)
			}
			for q := range owned {
				if p.Edges[q] != owned[q] || p.LocalEdges[q] != local[q] {
					t.Fatalf("n=%d k=%d %v: partition %d holds %d edges, %d local; an edge walk says %d, %d", n, k, mode, q, p.Edges[q], p.LocalEdges[q], owned[q], local[q])
				}
			}
		}
	})
}
