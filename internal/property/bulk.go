package property

import "github.com/graphbig/graphbig-go/internal/concurrent"

// BulkInput is what Bulk builds a graph from: the vertices in the order
// they are to be added, and the edges, in the order they are to be added,
// over indices into that vertex order. Bulk reads the edge sequence
// several times and from several goroutines at once, so every method must
// be a pure function of its argument, and vertex IDs must be distinct.
type BulkInput interface {
	NumVertices() int
	ID(i int) VertexID
	NumEdges() int
	Ends(e int) (src, dst int32)
	Weight(e int) float64
}

// Bulk builds a graph whole. The result is defined as equal to
//
//	g := New(opt)
//	for i := range in.NumVertices() { g.AddVertex(in.ID(i)) }
//	for e := range in.NumEdges()    { g.AddEdge(ID(src), ID(dst), in.Weight(e)) }
//
// issued from one goroutine: the same shard order, the same order inside
// every Out and In list, and the same simulated layout (every address and
// capacity, arena.Used()), at every worker count. Only the Go-side memory
// differs: records, property blocks and adjacency lists are carved out of
// exact-size slabs instead of being grown one append at a time.
//
// It works in two passes over the edge sequence. The first counts degrees
// and replays the arena bookkeeping, calling growEdges/growIn at the very
// edge where AddEdge would have; the simulated layout is a function of the
// order of those calls, so it is replayed rather than derived. The second
// fills the lists: workers own disjoint vertex ranges, and each scans the
// whole sequence for the records that land in its range, so every list has
// one writer, is filled in sequence order, and needs no lock.
//
// Lists are capacity-limited slices of the slab (s[lo:hi:hi]): a later
// AddEdge on a bulk-built graph reallocates that one list instead of
// running into its neighbour's. Construction is not reported to
// opt.Tracker; GCons, GUp and TMorph, which measure dynamic construction,
// use AddVertex/AddEdge.
func Bulk(opt Options, in BulkInput, workers int) *Graph {
	g := New(opt)
	n, m := in.NumVertices(), in.NumEdges()
	mirror, trackIn := !opt.Directed, opt.Directed && opt.TrackInEdges
	// Ends addresses vertices, and the fill its slab rows, as int32.
	Index32(n)
	if mirror {
		Index32(2 * m)
	} else {
		Index32(m)
	}

	perShard := make([]int, len(g.shards))
	for i := 0; i < n; i++ {
		perShard[mix64(uint64(in.ID(i)))&g.mask]++
	}
	slots := make([]*Vertex, n)
	at := 0
	for i, c := range perShard {
		g.shards[i].verts = slots[at : at : at+c]
		at += c
	}
	np := g.sch.cap
	vs := make([]Vertex, n)
	props := make([]float64, n*np)
	for i := range vs {
		v := &vs[i]
		v.ID = in.ID(i)
		v.props = props[i*np : (i+1)*np : (i+1)*np]
		g.place(g.shardOf(v.ID), v)
	}
	for i := range g.shards {
		if len(g.shards[i].index) != perShard[i] {
			panic("property: Bulk: duplicate vertex ID")
		}
	}
	g.nVerts.Store(int64(n))

	// Pass 1. outN[i+1] and inN[i+1] count vertex i's records.
	outN := make([]int32, n+1)
	var inN []int32
	if trackIn {
		inN = make([]int32, n+1)
	}
	for e := 0; e < m; e++ {
		s, d := in.Ends(e)
		if sv := &vs[s]; int(outN[s+1]) >= sv.edgeCap {
			g.growEdges(sv, nil)
		}
		outN[s+1]++
		if mirror {
			if dv := &vs[d]; int(outN[d+1]) >= dv.edgeCap {
				g.growEdges(dv, nil)
			}
			outN[d+1]++
		} else if trackIn {
			if dv := &vs[d]; int(inN[d+1]) >= dv.inCap {
				g.growIn(dv, nil)
			}
			inN[d+1]++
		}
	}
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
		for e := 0; e < m; e++ {
			s, d := in.Ends(e)
			si, di := int(s), int(d)
			if si >= lo && si < hi {
				row := outSlab[outOff[si]:outOff[si+1]]
				row[outAt[si]] = Edge{To: in.ID(di), Weight: in.Weight(e)}
				outAt[si]++
			}
			if di >= lo && di < hi {
				if mirror {
					row := outSlab[outOff[di]:outOff[di+1]]
					row[outAt[di]] = Edge{To: in.ID(si), Weight: in.Weight(e)}
					outAt[di]++
				} else if trackIn {
					row := inSlab[inOff[di]:inOff[di+1]]
					row[inAt[di]] = in.ID(si)
					inAt[di]++
				}
			}
		}
	})
	return g
}

// edgeListChunk is how many edges an EdgeList allocates at a time. Fixed
// chunks, not one growing slice: nothing is copied as the list grows, so
// buffering a file's edges allocates their size once, not five times.
const edgeListChunk = 1 << 14

type listEdge struct {
	src, dst int32
	w        float64
}

// EdgeList is the BulkInput for edges that arrive one at a time over
// sparse IDs, as a file reader meets them: it gives every ID an index on
// first mention (the one id→index lookup an endpoint costs) and buffers
// the edges over those indices. The zero value is an empty list.
type EdgeList struct {
	ids    []VertexID
	index  map[VertexID]int32
	chunks [][]listEdge
	m      int
}

// Intern returns id's index, adding id as the next vertex if it is new.
func (l *EdgeList) Intern(id VertexID) int32 {
	if i, ok := l.index[id]; ok {
		return i
	}
	if l.index == nil {
		l.index = make(map[VertexID]int32)
	}
	i := Index32(len(l.ids))
	l.index[id] = i
	l.ids = append(l.ids, id)
	return i
}

// Lookup returns id's index and whether id has been interned.
func (l *EdgeList) Lookup(id VertexID) (int32, bool) {
	i, ok := l.index[id]
	return i, ok
}

// Add appends an edge between two interned vertices.
func (l *EdgeList) Add(src, dst int32, w float64) {
	at := l.m % edgeListChunk
	if at == 0 {
		l.chunks = append(l.chunks, make([]listEdge, edgeListChunk))
	}
	l.chunks[l.m/edgeListChunk][at] = listEdge{src, dst, w}
	l.m++
}

// The BulkInput methods.

func (l *EdgeList) NumVertices() int  { return len(l.ids) }
func (l *EdgeList) ID(i int) VertexID { return l.ids[i] }
func (l *EdgeList) NumEdges() int     { return l.m }

func (l *EdgeList) Ends(e int) (src, dst int32) {
	r := &l.chunks[e/edgeListChunk][e%edgeListChunk]
	return r.src, r.dst
}

func (l *EdgeList) Weight(e int) float64 {
	return l.chunks[e/edgeListChunk][e%edgeListChunk].w
}
