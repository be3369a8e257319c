package property

import (
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
)

// BulkEdge is one edge of a BulkInput: its endpoints as indices into the
// input's vertex order, and its weight.
type BulkEdge struct {
	Src, Dst int32
	W        float64
}

// BulkInput is what Bulk builds a graph from: the vertices in the order
// they are to be added, and the edges, in the order they are to be added,
// over indices into that vertex order. Bulk reads the edge sequence
// several times and from several goroutines at once, so every method must
// be a pure function of its arguments, and vertex IDs must be distinct.
type BulkInput interface {
	NumVertices() int
	ID(i int) VertexID
	NumEdges() int
	// Edges returns the edges from e on as one run, at least one of them
	// while e < NumEdges(): either a stretch of the input's own storage,
	// which the caller only reads, or buf filled from the front. A reader
	// goes through the sequence one call per run instead of one per edge.
	Edges(e int, buf []BulkEdge) []BulkEdge
}

// bulkBlock is the buffer Bulk hands to Edges: 64 KiB of records, a run
// long enough to make the call free and short enough to stay in L2.
const bulkBlock = 4096

// forEdgeBlocks calls fn on the runs of in's edge sequence, in order.
func forEdgeBlocks(in BulkInput, fn func(run []BulkEdge)) {
	buf := make([]BulkEdge, bulkBlock)
	for e, m := 0, in.NumEdges(); e < m; {
		run := in.Edges(e, buf)
		if len(run) == 0 {
			panic("property: BulkInput.Edges returned no edge before the end of the sequence")
		}
		fn(run)
		e += len(run)
	}
}

// Bulk builds a graph whole. The result is defined as equal to
//
//	g := New(opt)
//	for i := range in.NumVertices() { g.AddVertex(in.ID(i)) }
//	for each edge {src, dst, w}     { g.AddEdge(in.ID(src), in.ID(dst), w) }
//
// issued from one goroutine: the same shard order, the same order inside
// every Out and In list, and the same simulated layout (every address and
// capacity, arena.Used()), at every worker count. Only the Go-side memory
// differs: records and adjacency lists are carved out of exact-size slabs
// instead of being grown one append at a time, property chunks serve
// consecutive input indices, and over dense IDs (denseIDLimit) one flat
// id→vertex table stands where the shards' maps would.
//
// The simulated layout is a function of the order of the arena's
// allocations, so it is replayed rather than derived, on one goroutine:
// vertex records and index-table doublings in vertex order (place), then a
// first pass over the edge sequence that counts degrees and calls
// growEdges/growIn at the very edge where AddEdge would have. What the
// layout does not depend on runs wide: the index is filled shard by
// shard, and a second pass fills the lists — workers own disjoint
// vertex ranges, and each scans the whole sequence for the records that
// land in its range, so every list has one writer, is filled in sequence
// order, and needs no lock.
//
// Lists are capacity-limited slices of the slab (s[lo:hi:hi]): a later
// AddEdge on a bulk-built graph reallocates that one list instead of
// running into its neighbour's. Construction is not reported to
// opt.Tracker; GCons, GUp and TMorph, which measure dynamic construction,
// use AddVertex/AddEdge.
func Bulk(opt Options, in BulkInput, workers int) *Graph {
	g := newGraph(opt, false)
	n, m := in.NumVertices(), in.NumEdges()
	mirror, trackIn := !opt.Directed, opt.Directed && opt.TrackInEdges
	// BulkEdge addresses vertices, and the fill its slab rows, as int32.
	Index32(n)
	if mirror {
		Index32(2 * m)
	} else {
		Index32(m)
	}

	// Vertices. Shard s holds slots[start[s]:start[s+1]], filled through
	// next[s] in vertex order: the order AddVertex would have left it in.
	ids := make([]VertexID, n)
	start := make([]int, len(g.shards)+1)
	var maxID VertexID
	for i := range ids {
		ids[i] = in.ID(i)
		maxID = max(maxID, ids[i])
		start[(mix64(uint64(ids[i]))&g.mask)+1]++
	}
	// The Go-side index: one flat table while the IDs are dense, else each
	// shard's map at its exact size.
	if denseIDs(n, maxID) {
		g.flat = make([]*Vertex, maxID+1)
	} else {
		for s := range g.shards {
			g.shards[s].index = make(map[VertexID]*Vertex, start[s+1])
		}
	}
	for s := range g.shards {
		start[s+1] += start[s]
	}
	next := make([]int, len(g.shards))
	copy(next, start)
	vs := make([]Vertex, n)
	chunks := newPropChunks((n+chunkRows-1)/chunkRows, g.sch.cap)
	slots := make([]*Vertex, n)
	for i := range vs {
		v := &vs[i]
		v.ID = ids[i]
		v.chunk, v.row = &chunks[i/chunkRows], Index16(i%chunkRows)
		s := mix64(uint64(v.ID)) & g.mask
		g.place(&g.shards[s], v)
		slots[next[s]] = v
		next[s]++
	}
	// The index takes no part in the layout, so it is filled a shard range
	// per worker, each shard's entries under its own lock.
	var dup atomic.Bool
	concurrent.ParallelRange(len(g.shards), workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sh := &g.shards[s]
			sh.mu.Lock()
			sh.verts = slots[start[s]:start[s+1]:start[s+1]]
			for _, v := range sh.verts {
				if g.lookup(sh, v.ID) != nil {
					dup.Store(true)
				}
				g.setIndex(sh, v.ID, v)
			}
			sh.mu.Unlock()
		}
	})
	if dup.Load() {
		panic("property: Bulk: duplicate vertex ID")
	}
	g.nVerts.Store(int64(n))

	// Pass 1. outN[i+1] and inN[i+1] count vertex i's records.
	outN := make([]int32, n+1)
	var inN []int32
	if trackIn {
		inN = make([]int32, n+1)
	}
	forEdgeBlocks(in, func(run []BulkEdge) {
		for _, e := range run {
			s, d := e.Src, e.Dst
			if sv := &vs[s]; outN[s+1] >= sv.edgeCap {
				g.growEdges(sv, nil)
			}
			outN[s+1]++
			if mirror {
				if dv := &vs[d]; outN[d+1] >= dv.edgeCap {
					g.growEdges(dv, nil)
				}
				outN[d+1]++
			} else if trackIn {
				if dv := &vs[d]; inN[d+1] >= dv.inCap {
					g.growIn(dv, nil)
				}
				inN[d+1]++
			}
		}
	})
	g.nEdges.Store(int64(m))

	// Pass 2. The counts become row offsets into the slabs; outAt and inAt
	// are each row's fill position.
	outOff, inOff := outN, inN
	prefixSum32(outOff)
	prefixSum32(inOff)
	outSlab := make([]Edge, outOff[n])
	outAt := make([]int32, n)
	var inSlab []VertexID
	var inAt []int32
	if trackIn {
		inSlab = make([]VertexID, inOff[n])
		inAt = make([]int32, n)
	}
	for i := range vs {
		if lo, hi := outOff[i], outOff[i+1]; lo < hi {
			vs[i].Out = outSlab[lo:hi:hi]
		}
		if trackIn && inOff[i] < inOff[i+1] {
			vs[i].In = inSlab[inOff[i]:inOff[i+1]:inOff[i+1]]
		}
	}
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		forEdgeBlocks(in, func(run []BulkEdge) {
			for _, e := range run {
				si, di := int(e.Src), int(e.Dst)
				if si >= lo && si < hi {
					row := outSlab[outOff[si]:outOff[si+1]]
					row[outAt[si]] = Edge{To: ids[di], Weight: e.W}
					outAt[si]++
				}
				if di >= lo && di < hi {
					if mirror {
						row := outSlab[outOff[di]:outOff[di+1]]
						row[outAt[di]] = Edge{To: ids[si], Weight: e.W}
						outAt[di]++
					} else if trackIn {
						row := inSlab[inOff[di]:inOff[di+1]]
						row[inAt[di]] = ids[si]
						inAt[di]++
					}
				}
			}
		})
	})
	return g
}

// edgeListChunk is how many edges an EdgeList allocates at a time. Fixed
// chunks, not one growing slice: nothing is copied as the list grows, so
// buffering a file's edges allocates their size once, not five times.
const edgeListChunk = 1 << 14

// EdgeList is the BulkInput for edges that arrive one at a time over
// sparse IDs, as a file reader meets them: it gives every ID an index on
// first mention (the one id→index lookup an endpoint costs — an array read
// while the IDs are dense) and buffers the edges over those indices. The
// zero value is an empty list.
type EdgeList struct {
	ids    []VertexID
	index  idIndex
	chunks [][]BulkEdge
	m      int
}

// Intern returns id's index, adding id as the next vertex if it is new.
func (l *EdgeList) Intern(id VertexID) int32 {
	if i := l.index.get(id); i >= 0 {
		return i
	}
	l.ids = append(l.ids, id)
	l.index.add(l.ids)
	return Index32(len(l.ids) - 1)
}

// Lookup returns id's index and whether id has been interned.
func (l *EdgeList) Lookup(id VertexID) (int32, bool) {
	i := l.index.get(id)
	return i, i >= 0
}

// Add appends an edge between two interned vertices.
func (l *EdgeList) Add(src, dst int32, w float64) {
	at := l.m % edgeListChunk
	if at == 0 {
		l.chunks = append(l.chunks, make([]BulkEdge, edgeListChunk))
	}
	l.chunks[l.m/edgeListChunk][at] = BulkEdge{src, dst, w}
	l.m++
}

// The BulkInput methods.

func (l *EdgeList) NumVertices() int  { return len(l.ids) }
func (l *EdgeList) ID(i int) VertexID { return l.ids[i] }
func (l *EdgeList) NumEdges() int     { return l.m }

// Edges returns what is left of e's chunk; buf is not used.
func (l *EdgeList) Edges(e int, _ []BulkEdge) []BulkEdge {
	c := e / edgeListChunk
	return l.chunks[c][e%edgeListChunk : min(edgeListChunk, l.m-c*edgeListChunk)]
}
