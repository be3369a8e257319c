package property

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/narrow"
)

// Property values are stored by field, not by vertex. A propChunk serves a
// run of chunkRows vertices — consecutive input indices in Bulk, consecutive
// insertions in AddVertex — and holds one column per schema slot, allocated
// when the first vertex of the chunk has that field written. A field nobody
// writes costs a nil pointer per chunk, a field added with EnsureField after
// construction needs no room made for it (slots up to Schema.Cap() are there
// from the start), and a never-written field reads 0.
//
// A value is reached two ways. Prop and SetPropRaw go through the vertex
// record: its chunk, then the field's column, then its row. SetColumn goes
// through a View's segments — runs of View indices that sit in consecutive
// rows of one chunk, recorded when the View is published — and writes a
// whole result array a segment at a time without reading a vertex record.
// Native kernels hand their results back that way; the framework
// primitives and the instrumented runs keep the per-vertex path.
//
// None of this is visible to the simulated layout: the property block of a
// vertex is still Schema.Cap() slots behind its record (Vertex.propAddr,
// Graph.recordBytes), so simulated sizes come from Schema.Cap() and Go
// memory from what was written.

// chunkRows is the number of vertices that share a chunk, and so the
// granularity at which a field's memory appears: 8*chunkRows bytes per
// column. Short chunks make the tables between a vertex and its value — a
// chunk header and a column pointer per chunk — too large to stay in cache
// when vertices are written one at a time in no particular order (the
// framework walk's scattered SetProp), and split a View into more segments;
// long ones round a small graph's fields up further. Chosen from the sweep in
// results/vertex_footprint_pairs.json. A row is stored as a uint16.
const chunkRows = 1024

const _ = uint16(chunkRows - 1)

type propColumn [chunkRows]float64

type propChunk struct {
	cols []atomic.Pointer[propColumn] // one per schema slot, nil until written
}

// newPropChunks returns k chunks of np unallocated columns each.
func newPropChunks(k, np int) []propChunk {
	chunks := make([]propChunk, k)
	cols := make([]atomic.Pointer[propColumn], k*np)
	for i := range chunks {
		chunks[i].cols = cols[i*np : (i+1)*np : (i+1)*np]
	}
	return chunks
}

// rowAllocator gives each vertex AddVertex creates the next row of the
// graph's current chunk, so vertices added one after another sit side by
// side in every column, as consecutive input indices do in Bulk. Its lock is
// taken inside a shard's and holds none.
type rowAllocator struct {
	mu    sync.Mutex
	chunk *propChunk
	used  int
}

func (a *rowAllocator) next(np int) (*propChunk, uint16) {
	a.mu.Lock()
	if a.chunk == nil || a.used == chunkRows {
		a.chunk, a.used = &newPropChunks(1, np)[0], 0
	}
	chunk, row := a.chunk, narrow.Index16(a.used)
	a.used++
	a.mu.Unlock()
	return chunk, row
}

// allocColumn fills the empty column slot p. Writers of different rows of a
// chunk may get here together: one CAS wins and the rest adopt its column,
// so no write is lost and none shares a word with another vertex's.
func allocColumn(p *atomic.Pointer[propColumn]) *propColumn {
	p.CompareAndSwap(nil, new(propColumn))
	return p.Load()
}

// Prop returns v's property without framework accounting; native kernels
// on hot paths use it after the algorithm has located the vertex. (Here
// and below, row%chunkRows is row: the remainder tells the compiler the
// index is inside the column.)
func (v *Vertex) Prop(slot int) float64 {
	if c := v.chunk.cols[slot].Load(); c != nil {
		return c[v.row%chunkRows]
	}
	return 0
}

// SetPropRaw writes v's property without framework accounting.
func (v *Vertex) SetPropRaw(slot int, x float64) {
	v.chunk.column(slot)[v.row%chunkRows] = x
}

// column returns the chunk's column of field slot, allocating it on the
// first write.
func (c *propChunk) column(slot int) *propColumn {
	p := &c.cols[slot]
	if col := p.Load(); col != nil {
		return col
	}
	return allocColumn(p)
}

// A segment is a maximal run of consecutive View indices whose vertices
// occupy consecutive rows of one chunk: View indices [start, next
// segment's start) are rows [row, ...) of chunk. publishIndex records a
// View's segments, so a whole column of results can be written without
// going back to the vertex records.
type segment struct {
	start int32
	row   uint16
	chunk *propChunk
}

// span returns the first View index of segment k and the part of field
// slot's column that holds the segment's values.
func (vw *View) span(k, slot int) (lo int, dst []float64) {
	s := &vw.segs[k]
	hi := len(vw.Verts)
	if k+1 < len(vw.segs) {
		hi = int(vw.segs[k+1].start)
	}
	lo = int(s.start)
	return lo, s.chunk.column(slot)[s.row%chunkRows:][:hi-lo]
}

// SetColumn writes vals[i] into field slot of vw.Verts[i] for every i,
// without framework accounting: what a SetPropRaw loop over the View
// stores, bit for bit, written one segment at a time instead of one vertex
// record at a time. It is how a native kernel hands back its result array.
// vals must have one entry per View vertex.
func SetColumn[T int32 | int64 | float64](vw *View, slot int, vals []T) {
	if len(vals) != len(vw.Verts) {
		badColumn(len(vals), len(vw.Verts))
	}
	for k := range vw.segs {
		lo, dst := vw.span(k, slot)
		src := vals[lo:][:len(dst)]
		for i, x := range src {
			dst[i] = float64(x)
		}
	}
}

// copyProps gives dst the value src holds in every field that has been
// written in src's chunk, and leaves dst's other columns unallocated.
func copyProps(dst, src *Vertex) {
	for slot := range src.chunk.cols {
		if c := src.chunk.cols[slot].Load(); c != nil {
			dst.SetPropRaw(slot, c[src.row%chunkRows])
		}
	}
}

// badColumn is SetColumn's length panic. It is not inlined, so that no
// instantiation of SetColumn carries the formatting and its allocations.
//
//go:noinline
func badColumn(got, want int) {
	panic(fmt.Sprintf("property: SetColumn got %d values for a View of %d vertices", got, want))
}
