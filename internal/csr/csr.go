// Package csr implements the compact static graph representations of the
// paper's Figure 2(a)(b): Compressed Sparse Row and Coordinate List. In
// GraphBIG the GPU side organizes graph data as CSR/COO; the graph
// populating step converts the dynamic vertex-centric graph in CPU memory
// (package property) into these arrays before kernels run (paper §4.1).
// Here that step is free: a property.View already holds its adjacency as a
// CSR with every row sorted by destination, so a Graph is the View's arrays
// under CSR names.
//
// CSR also carries a simulated address layout so the cache model can
// compare the locality of the compact format against the vertex-centric
// layout (the paper's data-representation discussion in §2).
package csr

import (
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Graph is a CSR graph over the dense vertex indices of a property.View.
// Edge k of vertex i occupies Col[RowPtr[i]+k], and each row ascends by
// destination. An undirected property graph yields both directions (its
// mirrored records), which is the layout GPU kernels expect. RowPtr, Col
// and W are the View's NbrOff, Nbr and NbrW: read them, never write them.
type Graph struct {
	N      int
	RowPtr []int32
	Col    []int32
	W      []float64

	rowAddr, colAddr, wAddr uint64
}

// COO is the coordinate-list variant: one (src,dst) record per edge, used
// by the edge-centric GPU kernels (CComp, TC). Dst is the CSR's Col.
type COO struct {
	Src, Dst []int32
}

// FromProperty converts vw's snapshot of g. The View already holds every
// live vertex's out-records over dense indices, rows sorted, with
// destinations that fell outside it (deleted vertices) dropped, so the
// Graph takes its arrays as they are. Only the simulated layout is new:
// three contiguous arrays, as a real CSR would be, with 8-byte row
// pointers.
func FromProperty(g *property.Graph, vw *property.View) *Graph {
	c := &Graph{N: vw.Len(), RowPtr: vw.NbrOff, Col: vw.Nbr, W: vw.NbrW}
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

// ToCOO expands the CSR into coordinate form; only Src is allocated.
func (c *Graph) ToCOO() *COO {
	co := &COO{Src: make([]int32, len(c.Col)), Dst: c.Col}
	n := narrow.Index32(c.N)
	for i := int32(0); i < n; i++ {
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			co.Src[k] = i
		}
	}
	return co
}

// Simulated addresses of CSR elements, used by the SIMT memory model and
// by the layout-locality ablation.

// RowAddr returns the simulated address of RowPtr[i].
func (c *Graph) RowAddr(i int32) uint64 { return c.rowAddr + uint64(i)*8 }

// ColAddr returns the simulated address of Col[k].
func (c *Graph) ColAddr(k int32) uint64 { return c.colAddr + uint64(k)*4 }

// WAddr returns the simulated address of W[k].
func (c *Graph) WAddr(k int32) uint64 { return c.wAddr + uint64(k)*8 }

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
