package csr

import (
	"cmp"
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

func buildGraph(t *testing.T) (*property.Graph, *property.View) {
	t.Helper()
	g := property.New(property.Options{})
	for i := property.VertexID(0); i < 5; i++ {
		g.AddVertex(i)
	}
	for _, e := range [][2]property.VertexID{{0, 3}, {0, 1}, {1, 2}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1], float64(e[0]+e[1])); err != nil {
			t.Fatal(err)
		}
	}
	return g, g.View()
}

func TestFromPropertyStructure(t *testing.T) {
	g, vw := buildGraph(t)
	c := FromProperty(g, vw)
	if c.N != 5 {
		t.Fatalf("N = %d", c.N)
	}
	// Undirected: each logical edge appears twice.
	if c.NumEdges() != 8 {
		t.Fatalf("edges = %d, want 8", c.NumEdges())
	}
	// Vertex 0 has neighbors 1 and 3, sorted.
	n0 := c.Col[c.RowPtr[0]:c.RowPtr[1]]
	if len(n0) != 2 || n0[0] != 1 || n0[1] != 3 {
		t.Errorf("row 0 = %v, want [1 3] sorted", n0)
	}
	if c.Degree(0) != 2 || c.Degree(2) != 1 {
		t.Errorf("degrees wrong: %d, %d", c.Degree(0), c.Degree(2))
	}
	// Weights co-sorted with columns: 0-1 weight 1, 0-3 weight 3.
	w0 := c.W[c.RowPtr[0]:c.RowPtr[1]]
	if w0[0] != 1 || w0[1] != 3 {
		t.Errorf("row 0 weights = %v", w0)
	}
}

// TestFromPropertySharesViewArrays: the CSR is the View's adjacency under
// CSR names, so FromProperty allocates no array, only the Graph header.
// buildGraph's row 0 is stored unsorted (0->3 before 0->1); the View sorts
// it, weights beside their destinations.
func TestFromPropertySharesViewArrays(t *testing.T) {
	g, vw := buildGraph(t)
	c := FromProperty(g, vw)
	if &c.RowPtr[0] != &vw.NbrOff[0] || len(c.RowPtr) != len(vw.NbrOff) {
		t.Error("RowPtr is not the View's NbrOff")
	}
	if &c.Col[0] != &vw.Nbr[0] || len(c.Col) != len(vw.Nbr) {
		t.Error("Col is not the View's Nbr")
	}
	if &c.W[0] != &vw.NbrW[0] || len(c.W) != len(vw.NbrW) {
		t.Error("W is not the View's NbrW")
	}
	if row, w := vw.Adj(0), vw.AdjW(0); !slices.Equal(row, []int32{1, 3}) || !slices.Equal(w, []float64{1, 3}) {
		t.Errorf("View row 0 = %v weights %v, want [1 3] [1 3]", row, w)
	}
	if allocs := testing.AllocsPerRun(20, func() { FromProperty(g, vw) }); allocs > 1 {
		t.Errorf("FromProperty made %v allocations, want only the Graph", allocs)
	}
}

// TestFromPropertyLeavesViewUnchanged: the View is published and shared,
// and the CSR and its COO borrow its arrays, so converting and reading them
// must leave every array of the View as it was.
func TestFromPropertyLeavesViewUnchanged(t *testing.T) {
	g := gen.LDBC(500, 3, 0)
	vw := g.View()
	nbr, nbrW, nbrOff := slices.Clone(vw.Nbr), slices.Clone(vw.NbrW), slices.Clone(vw.NbrOff)
	inNbr, inOff := slices.Clone(vw.InNbr), slices.Clone(vw.InOff)
	c := FromProperty(g, vw)
	c.ToCOO()
	c.TraverseInstrumented(mem.NewCounting())
	if !slices.Equal(vw.Nbr, nbr) || !slices.Equal(vw.InNbr, inNbr) {
		t.Error("FromProperty or its readers changed the View's Nbr or InNbr")
	}
	if !slices.Equal(vw.NbrW, nbrW) {
		t.Error("FromProperty or its readers changed the View's NbrW")
	}
	if !slices.Equal(vw.NbrOff, nbrOff) || !slices.Equal(vw.InOff, inOff) {
		t.Error("FromProperty or its readers changed the View's NbrOff or InOff")
	}
}

func TestRowsSorted(t *testing.T) {
	g := gen.LDBC(500, 3, 0)
	vw := g.View()
	c := FromProperty(g, vw)
	for i := int32(0); i < int32(c.N); i++ {
		row := c.Col[c.RowPtr[i]:c.RowPtr[i+1]]
		for k := 1; k < len(row); k++ {
			if row[k-1] > row[k] {
				t.Fatalf("row %d not sorted at %d", i, k)
			}
		}
	}
}

func TestSkipsDeletedDestinations(t *testing.T) {
	g, _ := buildGraph(t)
	// Delete vertex 4 after the edges exist, then view + convert.
	if _, err := g.DeleteVertex(4); err != nil {
		t.Fatal(err)
	}
	vw := g.View()
	c := FromProperty(g, vw)
	if c.N != 4 {
		t.Fatalf("N = %d, want 4", c.N)
	}
	for k := range c.Col {
		if c.Col[k] < 0 || int(c.Col[k]) >= c.N {
			t.Errorf("dangling column %d", c.Col[k])
		}
	}
}

func TestToCOO(t *testing.T) {
	g, vw := buildGraph(t)
	c := FromProperty(g, vw)
	coo := c.ToCOO()
	if len(coo.Src) != c.NumEdges() {
		t.Fatalf("COO size = %d", len(coo.Src))
	}
	if &coo.Dst[0] != &c.Col[0] || len(coo.Dst) != len(c.Col) {
		t.Error("COO Dst is not the CSR's Col")
	}
	for k := range coo.Src {
		found := false
		src := coo.Src[k]
		for _, nb := range c.Col[c.RowPtr[src]:c.RowPtr[src+1]] {
			if nb == coo.Dst[k] {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("COO edge %d->%d not in CSR", coo.Src[k], coo.Dst[k])
		}
	}
}

// TestToCOOAllocatesOnlySrc: Dst is the CSR's Col, so ToCOO allocates the
// COO header and its Src array and nothing else, whatever the edge count.
func TestToCOOAllocatesOnlySrc(t *testing.T) {
	g := gen.LDBC(500, 3, 0)
	c := FromProperty(g, g.View())
	var coo *COO // kept, so the COO itself is always on the heap
	if allocs := testing.AllocsPerRun(20, func() { coo = c.ToCOO() }); allocs > 2 {
		t.Errorf("ToCOO made %v allocations, want the COO and its Src", allocs)
	}
	if len(coo.Src) != c.NumEdges() {
		t.Errorf("COO has %d records, want %d", len(coo.Src), c.NumEdges())
	}
}

func TestAddressesDisjointAndOrdered(t *testing.T) {
	g, vw := buildGraph(t)
	c := FromProperty(g, vw)
	if c.RowAddr(1) != c.RowAddr(0)+8 {
		t.Error("RowPtr addresses not contiguous")
	}
	if c.ColAddr(1) != c.ColAddr(0)+4 {
		t.Error("Col addresses not contiguous")
	}
	if c.WAddr(1) != c.WAddr(0)+8 {
		t.Error("W addresses not contiguous")
	}
}

func TestTraverseInstrumented(t *testing.T) {
	g, vw := buildGraph(t)
	c := FromProperty(g, vw)
	ct := mem.NewCounting()
	sum := c.TraverseInstrumented(ct)
	var want uint64
	for _, col := range c.Col {
		want += uint64(col)
	}
	if sum != want {
		t.Errorf("traverse sum = %d, want %d", sum, want)
	}
	if ct.Loads[mem.ClassUser] == 0 {
		t.Error("instrumented traversal reported no loads")
	}
}

// fromPropertyByLookup is FromProperty as it was before it took the
// View's rows: every out-record of every vertex resolved again through
// IndexOf, appended, and the row sorted stably by destination. Kept as the
// oracle for the View's sorted rows.
func fromPropertyByLookup(g *property.Graph, vw *property.View) *Graph {
	n := vw.Len()
	c := &Graph{N: n, RowPtr: make([]int32, n+1)}
	type record struct {
		to int32
		w  float64
	}
	for i, v := range vw.Verts {
		var recs []record
		for _, e := range v.Out {
			if j := vw.IndexOf(e.To); j >= 0 {
				recs = append(recs, record{j, e.Weight})
			}
		}
		slices.SortStableFunc(recs, func(a, b record) int { return cmp.Compare(a.to, b.to) })
		for _, r := range recs {
			c.Col, c.W = append(c.Col, r.to), append(c.W, r.w)
		}
		c.RowPtr[i+1] = int32(len(c.Col))
	}
	ar := g.Arena()
	c.rowAddr = ar.Alloc(uint64(len(c.RowPtr))*8, 64)
	c.colAddr = ar.Alloc(uint64(len(c.Col))*4, 64)
	c.wAddr = ar.Alloc(uint64(len(c.W))*8, 64)
	return c
}

// TestFromPropertyMatchesLookupLoop builds every input twice, so both
// conversions allocate from arenas in the same state, and requires the
// same arrays and the same three simulated base addresses: on LDBC
// (the benchmark's input), on a road grid with deleted
// vertices (holes in the ID space, so indices are not IDs), and on LDBC
// under an ordering permutation.
func TestFromPropertyMatchesLookupLoop(t *testing.T) {
	reverse := func(n int, _, _ []int32) []int32 {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(n - 1 - i)
		}
		return perm
	}
	for name, build := range map[string]func() (*property.Graph, *property.View){
		"ldbc": func() (*property.Graph, *property.View) {
			g := gen.LDBC(700, 3, 0)
			return g, g.View()
		},
		"road with deleted vertices": func() (*property.Graph, *property.View) {
			g := gen.Road(900, 5, 0)
			for id := property.VertexID(7); id < 900; id += 13 {
				if _, err := g.DeleteVertex(id); err != nil {
					t.Fatal(err)
				}
			}
			return g, g.View()
		},
		"ldbc reordered": func() (*property.Graph, *property.View) {
			g := gen.LDBC(700, 3, 0)
			return g, g.ViewWith(property.ViewOpts{Order: reverse})
		},
	} {
		got, want := FromProperty(build()), fromPropertyByLookup(build())
		if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) ||
			!slices.Equal(got.W, want.W) {
			t.Errorf("%s: arrays differ from the lookup loop's (%d vertices, %d vs %d records)", name, got.N, len(got.Col), len(want.Col))
		}
		if got.rowAddr != want.rowAddr || got.colAddr != want.colAddr || got.wAddr != want.wAddr {
			t.Errorf("%s: base addresses %x %x %x, want %x %x %x", name,
				got.rowAddr, got.colAddr, got.wAddr, want.rowAddr, want.colAddr, want.wAddr)
		}
		if got.NumEdges() == 0 {
			t.Errorf("%s: no edges", name)
		}
	}
}
