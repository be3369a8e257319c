package property

import (
	"sync"
	"sync/atomic"
)

// Property values are stored by field, not by vertex. A propChunk serves a
// run of chunkRows vertices — consecutive input indices in Bulk, consecutive
// insertions in AddVertex — and holds one column per schema slot, allocated
// when the first vertex of the chunk has that field written. A field nobody
// writes costs a nil pointer per chunk, a field added with EnsureField after
// construction needs no room made for it (slots up to Schema.Cap() are there
// from the start), and a never-written field reads 0.
//
// None of this is visible to the simulated layout: the property block of a
// vertex is still Schema.Cap() slots behind its record (Vertex.propAddr,
// Graph.recordBytes), so simulated sizes come from Schema.Cap() and Go
// memory from what was written.

// chunkRows is the number of vertices that share a chunk, and so the
// granularity at which a field's memory appears: 8*chunkRows bytes per
// column. Short chunks make the tables between a vertex and its value — a
// chunk header and a column pointer per chunk — too large to stay in cache
// when vertices are written in no particular order (kCore's peel); long
// ones round a small graph's fields up further. Chosen from the sweep in
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
	chunk, row := a.chunk, Index16(a.used)
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
	p := &v.chunk.cols[slot]
	c := p.Load()
	if c == nil {
		c = allocColumn(p)
	}
	c[v.row%chunkRows] = x
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
