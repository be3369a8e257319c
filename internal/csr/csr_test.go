package csr

import (
	"slices"
	"sort"
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
	n0 := c.Neigh(0)
	if len(n0) != 2 || n0[0] != 1 || n0[1] != 3 {
		t.Errorf("Neigh(0) = %v, want [1 3] sorted", n0)
	}
	if c.Degree(0) != 2 || c.Degree(2) != 1 {
		t.Errorf("degrees wrong: %d, %d", c.Degree(0), c.Degree(2))
	}
	// Weights co-sorted with columns: 0-1 weight 1, 0-3 weight 3.
	w0 := c.Weights(0)
	if w0[0] != 1 || w0[1] != 3 {
		t.Errorf("Weights(0) = %v", w0)
	}
	// IDs map back.
	for i := 0; i < c.N; i++ {
		if c.IDs[i] != vw.Verts[i].ID {
			t.Errorf("IDs[%d] = %d", i, c.IDs[i])
		}
	}
}

func TestRowsSorted(t *testing.T) {
	g := gen.LDBC(500, 3, 0)
	vw := g.View()
	c := FromProperty(g, vw)
	for i := int32(0); i < int32(c.N); i++ {
		row := c.Neigh(i)
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
	for k := range coo.Src {
		found := false
		for _, nb := range c.Neigh(coo.Src[k]) {
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

// fromPropertyByLookup is FromProperty as it was before it copied the
// View's rows: every out-record of every vertex resolved again through
// IndexOf, appended, and the row sorted. Kept as the oracle for the copy.
func fromPropertyByLookup(g *property.Graph, vw *property.View) *Graph {
	n := vw.Len()
	c := &Graph{N: n, RowPtr: make([]int64, n+1), IDs: make([]property.VertexID, n)}
	for i, v := range vw.Verts {
		c.IDs[i] = v.ID
		c.RowPtr[i] = int64(len(c.Col))
		for _, e := range v.Out {
			if j := vw.IndexOf(e.To); j >= 0 {
				c.Col = append(c.Col, j)
				c.W = append(c.W, e.Weight)
			}
		}
		sort.Sort(&rowSorter{c.Col[c.RowPtr[i]:], c.W[c.RowPtr[i]:]})
	}
	c.RowPtr[n] = int64(len(c.Col))
	ar := g.Arena()
	c.rowAddr = ar.Alloc(uint64(len(c.RowPtr))*8, 64)
	c.colAddr = ar.Alloc(uint64(len(c.Col))*4, 64)
	c.wAddr = ar.Alloc(uint64(len(c.W))*8, 64)
	return c
}

// TestFromPropertyMatchesLookupLoop builds every input twice, so both
// conversions allocate from arenas in the same state, and requires the
// same arrays and the same three simulated base addresses: on LDBC
// (unsorted rows, the benchmark's input), on a road grid with deleted
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
			!slices.Equal(got.W, want.W) || !slices.Equal(got.IDs, want.IDs) {
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
