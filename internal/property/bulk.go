package property

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/narrow"
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

// forEdgeBlocks calls fn on the runs of edges lo..hi-1 of in's sequence, in
// order.
func forEdgeBlocks(in BulkInput, lo, hi int, fn func(run []BulkEdge)) {
	buf := make([]BulkEdge, bulkBlock)
	for e := lo; e < hi; {
		run := in.Edges(e, buf[:min(len(buf), hi-e)])
		if len(run) == 0 {
			panic("property: BulkInput.Edges returned no edge before the end of the sequence")
		}
		run = run[:min(len(run), hi-e)]
		fn(run)
		e += len(run)
	}
}

// bulkRanges is how many contiguous ranges Bulk cuts m edges over n
// vertices into: one per worker, none of them empty, and no more than keep
// the per-range counters (n int32 each) within four per edge, the size of
// the out-slab they index.
func bulkRanges(workers, n, m int) int {
	return max(1, min(concurrent.Workers(workers), m, 4*m/max(n, 1)))
}

// eachRange runs fn on the nr ranges of an m-edge sequence concurrently,
// one goroutine each, range r being edges r*m/nr up to (r+1)*m/nr.
func eachRange(nr, m int, fn func(r, lo, hi int)) {
	concurrent.ParallelRange(nr, nr, func(a, b int) {
		for r := a; r < b; r++ {
			fn(r, r*m/nr, (r+1)*m/nr)
		}
	})
}

// growsAt reports whether a list holding c records grows to take the
// next: at 0 and at every capacity grownCap reaches (4, 8, 16, ...).
func growsAt(c int32) bool { return c&(c-1) == 0 && uint32(c)-1 >= 2 }

// firstGrowFrom is the first record count from c on at which a list grows.
func firstGrowFrom(c int32) int32 {
	if c == 0 {
		return 0
	}
	return max(4, int32(1)<<bits.Len32(uint32(c-1)))
}

// alignUp rounds an arena offset up to listAlign, as Arena.Alloc does.
func alignUp(a uint64) uint64 { return (a + listAlign - 1) &^ (listAlign - 1) }

// rangeBases turns per-range record counts into each range's base in every
// row — cnt[r][v] becomes the number of v's records in ranges before r —
// writes every row's total to off[v+1], and adds to bytes[r] the arena
// space range r's grows take, at rec bytes a record, each chunk from a
// listAlign boundary. Vertex ranges go to workers.
func rangeBases(cnt [][]int32, off []int32, rec uint64, bytes []uint64, workers int) {
	var mu sync.Mutex
	concurrent.ParallelRange(len(off)-1, workers, func(lo, hi int) {
		span := make([]uint64, len(cnt))
		for v := lo; v < hi; v++ {
			var run int32
			for r, c := range cnt {
				n := c[v]
				c[v] = run
				for k := firstGrowFrom(run); k < run+n; k = grownCap(k) {
					span[r] += alignUp(uint64(grownCap(k)) * rec)
				}
				run += n
			}
			off[v+1] = run
		}
		mu.Lock()
		for r, b := range span {
			bytes[r] += b
		}
		mu.Unlock()
	})
}

// arenaRun hands out the addresses one range's grows take, in its order,
// as successive Alloc calls would from next on.
type arenaRun struct{ next uint64 }

// grow gives a list of total records that grows at c records its next
// chunk: it sets *addr and *capacity when that chunk is the list's last,
// the one the list ends in.
func (a *arenaRun) grow(c, total int32, rec uint64, addr *uint64, capacity *int32) {
	k := grownCap(c)
	at := alignUp(a.next)
	a.next = at + uint64(k)*rec
	if k >= total {
		*addr, *capacity = at, k
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
// allocations. Vertex records and index-table doublings are replayed on
// one goroutine in vertex order (place); the index, which takes no part in
// the layout, is filled shard by shard. The edge sequence is cut into
// contiguous ranges, one per worker, and read twice, each edge once per
// pass by its range's worker. The first pass counts each range's records
// per vertex. Their prefix sums give every list its slab row and every
// range its base in each row, and tell each range which of the list
// growths AddEdge would make (growsAt) fall inside it and how much arena
// space they take: a range's first chunk starts where the ranges before
// it leave the arena. The second pass writes each range's records in
// place from its bases — every list in sequence order, disjoint slots
// per worker, no lock — and gives each growth the address Arena.Alloc
// would have, in sequence order within the range; the range that grows a
// list into its last chunk records it. One allocation then moves the
// arena to where the last growth ends.
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
	narrow.Index32(n)
	if mirror {
		narrow.Index32(2 * m)
	} else {
		narrow.Index32(m)
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
		v.chunk, v.row = &chunks[i/chunkRows], narrow.Index16(i%chunkRows)
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

	// Edges. The sequence is cut into nr contiguous ranges and every pass
	// reads each edge once, in its range's worker. Pass 1 counts each
	// range's records per vertex.
	nr := bulkRanges(workers, n, m)
	outCnt := make([][]int32, nr)
	var inCnt [][]int32
	if trackIn {
		inCnt = make([][]int32, nr)
	}
	for r := range nr {
		outCnt[r] = make([]int32, n)
		if trackIn {
			inCnt[r] = make([]int32, n)
		}
	}
	eachRange(nr, m, func(r, lo, hi int) {
		out := outCnt[r]
		var inc []int32
		if trackIn {
			inc = inCnt[r]
		}
		forEdgeBlocks(in, lo, hi, func(run []BulkEdge) {
			for _, e := range run {
				out[e.Src]++
				if mirror {
					out[e.Dst]++
				} else if trackIn {
					inc[e.Dst]++
				}
			}
		})
	})
	g.nEdges.Store(int64(m))

	// The counts become row offsets into the slabs and each range's base
	// in every row. Range r's grows take bytes[r] of arena space, so its
	// first chunk goes to the arena's next aligned address plus what the
	// grows of the ranges before it take.
	outOff := make([]int32, n+1)
	bytes := make([]uint64, nr)
	rangeBases(outCnt, outOff, edgeRecordBytes, bytes, workers)
	var inOff []int32
	if trackIn {
		inOff = make([]int32, n+1)
		rangeBases(inCnt, inOff, inRecordBytes, bytes, workers)
	}
	prefixSum32(outOff)
	prefixSum32(inOff)
	runs := make([]arenaRun, nr)
	at := alignUp(g.arena.Used())
	base := at
	for r := range runs {
		runs[r].next = at
		at += bytes[r]
	}
	outSlab := make([]Edge, outOff[n])
	var inSlab []VertexID
	if trackIn {
		inSlab = make([]VertexID, inOff[n])
	}
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if a, b := outOff[i], outOff[i+1]; a < b {
				vs[i].Out = outSlab[a:b:b]
			}
			if trackIn && inOff[i] < inOff[i+1] {
				vs[i].In = inSlab[inOff[i]:inOff[i+1]:inOff[i+1]]
			}
		}
	})

	// Pass 2 fills each range's records in place, from its base on: every
	// list in sequence order, disjoint slots per worker, no lock. A record
	// that finds its list full takes the range's next chunk, and the chunk
	// a list ends in is set by the one range that hands it out.
	eachRange(nr, m, func(r, lo, hi int) {
		out, ar := outCnt[r], &runs[r]
		var inc []int32
		if trackIn {
			inc = inCnt[r]
		}
		forEdgeBlocks(in, lo, hi, func(run []BulkEdge) {
			for _, e := range run {
				s, d := e.Src, e.Dst
				c := out[s]
				out[s] = c + 1
				outSlab[outOff[s]+c] = Edge{To: ids[d], Weight: e.W}
				if growsAt(c) {
					ar.grow(c, outOff[s+1]-outOff[s], edgeRecordBytes, &vs[s].edgeAddr, &vs[s].edgeCap)
				}
				if mirror {
					c := out[d]
					out[d] = c + 1
					outSlab[outOff[d]+c] = Edge{To: ids[s], Weight: e.W}
					if growsAt(c) {
						ar.grow(c, outOff[d+1]-outOff[d], edgeRecordBytes, &vs[d].edgeAddr, &vs[d].edgeCap)
					}
				} else if trackIn {
					c := inc[d]
					inc[d] = c + 1
					inSlab[inOff[d]+c] = ids[s]
					if growsAt(c) {
						ar.grow(c, inOff[d+1]-inOff[d], inRecordBytes, &vs[d].inAddr, &vs[d].inCap)
					}
				}
			}
		})
	})
	// The arena ends where the last grow of the last range that has any
	// ends; one allocation from base takes it there.
	for r := nr - 1; r >= 0; r-- {
		if bytes[r] > 0 {
			g.arena.Alloc(runs[r].next-base, listAlign)
			break
		}
	}
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
	return narrow.Index32(len(l.ids) - 1)
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
