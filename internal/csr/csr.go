// Package csr implements the compact static graph representations of the
// paper's Figure 2(a)(b): Compressed Sparse Row and Coordinate List. In
// GraphBIG the GPU side organizes graph data as CSR/COO; the graph
// populating step converts the dynamic vertex-centric graph in CPU memory
// (package property) into these arrays before kernels run (paper §4.1).
//
// CSR also carries a simulated address layout so the cache model can
// compare the locality of the compact format against the vertex-centric
// layout (the paper's data-representation discussion in §2).
package csr

import (
	"sort"

	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// rowSorter co-sorts one CSR row's destinations and weights.
type rowSorter struct {
	col []int32
	w   []float64
}

func (r *rowSorter) Len() int           { return len(r.col) }
func (r *rowSorter) Less(i, j int) bool { return r.col[i] < r.col[j] }
func (r *rowSorter) Swap(i, j int) {
	r.col[i], r.col[j] = r.col[j], r.col[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}

// Graph is a CSR graph over the dense vertex indices of a property.View.
// Edge k of vertex i occupies Col[RowPtr[i]+k]. An undirected property
// graph yields both directions (its mirrored records), which is the layout
// GPU kernels expect.
type Graph struct {
	N      int
	RowPtr []int64
	Col    []int32
	W      []float64
	IDs    []property.VertexID // dense index -> original vertex ID

	rowAddr, colAddr, wAddr uint64
}

// COO is the coordinate-list variant: one (src,dst) record per edge, used
// by the edge-centric GPU kernels (CComp, TC).
type COO struct {
	Src, Dst []int32
	W        []float64
}

// FromProperty converts vw's snapshot of g: the View already holds every
// live vertex's out-records over dense indices, with destinations that fell
// outside it (deleted vertices) dropped, so its rows are copied, not
// resolved a second time.
func FromProperty(g *property.Graph, vw *property.View) *Graph {
	n := vw.Len()
	c := &Graph{
		N:      n,
		RowPtr: make([]int64, n+1),
		Col:    make([]int32, len(vw.Nbr)),
		W:      make([]float64, len(vw.NbrW)),
		IDs:    make([]property.VertexID, n),
	}
	copy(c.Col, vw.Nbr)
	copy(c.W, vw.NbrW)
	// Canonical CSR keeps each row sorted by destination (the dynamic
	// store keeps insertion order); kernels rely on ordered rows.
	var row rowSorter
	for i, v := range vw.Verts {
		c.IDs[i] = v.ID
		lo, hi := vw.NbrOff[i], vw.NbrOff[i+1]
		c.RowPtr[i+1] = int64(hi)
		row.col, row.w = c.Col[lo:hi], c.W[lo:hi]
		sort.Sort(&row)
	}
	// Simulated layout: three contiguous arrays, as a real CSR would be.
	ar := g.Arena()
	c.rowAddr = ar.Alloc(uint64(len(c.RowPtr))*8, 64)
	c.colAddr = ar.Alloc(uint64(len(c.Col))*4, 64)
	c.wAddr = ar.Alloc(uint64(len(c.W))*8, 64)
	return c
}

// NumEdges returns the number of directed edge records.
func (c *Graph) NumEdges() int { return len(c.Col) }

// Degree returns the out-degree of dense vertex i.
func (c *Graph) Degree(i int32) int {
	return int(c.RowPtr[i+1] - c.RowPtr[i])
}

// ToCOO expands the CSR into coordinate form.
func (c *Graph) ToCOO() *COO {
	co := &COO{
		Src: make([]int32, len(c.Col)),
		Dst: make([]int32, len(c.Col)),
		W:   make([]float64, len(c.Col)),
	}
	n := narrow.Index32(c.N)
	for i := int32(0); i < n; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			co.Src[k] = i
			co.Dst[k] = c.Col[k]
			co.W[k] = c.W[k]
		}
	}
	return co
}

// Simulated addresses of CSR elements, used by the SIMT memory model and
// by the layout-locality ablation.

// RowAddr returns the simulated address of RowPtr[i].
func (c *Graph) RowAddr(i int32) uint64 { return c.rowAddr + uint64(i)*8 }

// ColAddr returns the simulated address of Col[k].
func (c *Graph) ColAddr(k int64) uint64 { return c.colAddr + uint64(k)*4 }

// WAddr returns the simulated address of W[k].
func (c *Graph) WAddr(k int64) uint64 { return c.wAddr + uint64(k)*8 }

// TraverseInstrumented performs a full sequential sweep over all adjacency
// lists, reporting every access to t. It is the CSR half of the
// layout-locality ablation (its property-graph counterpart is a
// ForEachVertex+Neighbors sweep).
func (c *Graph) TraverseInstrumented(t mem.Tracker) uint64 {
	var sum uint64
	n := narrow.Index32(c.N)
	for i := int32(0); i < n; i++ {
		t.Load(c.RowAddr(i), 8)
		t.Load(c.RowAddr(i+1), 8)
		t.Inst(4)
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			t.Load(c.ColAddr(k), 4)
			t.Branch(property.SiteUserBase, k+1 < c.RowPtr[i+1])
			t.Inst(2)
			sum += uint64(c.Col[k])
		}
	}
	return sum
}
