package property

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/mem"
)

// VertexID identifies a vertex. IDs are user-assigned and need not be dense.
type VertexID uint64

// Simulated layout constants. The cache/TLB model only cares about the
// address pattern, so round structure sizes are used.
const (
	vertexRecordBytes = 64 // id, degree, list heads, flags — one cache line
	edgeRecordBytes   = 24 // destination id, weight, property pointer
	inRecordBytes     = 8  // source id
	indexBucketBytes  = 16 // key + vertex pointer (open addressing)
	propSlotBytes     = 8  // one float64 property slot
)

// Branch-site identifiers for the framework's data-dependent branches.
const (
	siteFindProbe uint32 = iota + 1
	siteNeighborLoop
	siteEdgeScan
	siteInScan
	// SiteUserBase is the first branch-site id available to workload code;
	// framework sites stay below it.
	SiteUserBase uint32 = 64
)

// Edge is one outgoing edge record stored inside its source vertex: 16
// bytes of Go memory whatever the simulated stride (Graph.edgeRec) says.
// Weight is the universally-present property; graphs built with
// Options.EdgePropSlots keep additional per-edge slots beside the list
// (shard.eprops), behind the SetEdgeProp/GetEdgeProp primitives.
type Edge struct {
	To     VertexID
	Weight float64
}

// Vertex is the basic unit of the graph: identity, properties and the
// outgoing adjacency list belong together (vertex-centric representation).
// In the simulated layout the property block follows the record; in Go
// memory the values are row `row` of the field columns of `chunk`
// (props.go), and metadata blobs sit in the shard (edgeprops.go), so a
// vertex costs 104 bytes plus what has been written to it.
type Vertex struct {
	ID  VertexID
	Out []Edge
	In  []VertexID // populated only when Options.TrackInEdges

	chunk    *propChunk
	addr     uint64 // simulated base of the vertex record (props follow)
	edgeAddr uint64 // simulated base of the out-edge chunk
	inAddr   uint64
	edgeCap  int32
	inCap    int32
	row      uint16 // this vertex's row of chunk, < chunkRows
	dead     bool
}

// OutDegree returns the current out-degree.
func (v *Vertex) OutDegree() int { return len(v.Out) }

// InDegree returns the in-degree (0 unless in-edges are tracked).
func (v *Vertex) InDegree() int { return len(v.In) }

func (v *Vertex) propAddr(slot int) uint64 {
	return v.addr + vertexRecordBytes + uint64(slot)*propSlotBytes
}

type shard struct {
	id int
	mu sync.RWMutex
	// index holds the shard's vertices whose ID lies outside Graph.flat:
	// all of them on a graph built incrementally or over sparse IDs, none
	// (a nil map) on one bulk-built over dense IDs until such an ID is added.
	index    map[VertexID]*Vertex
	verts    []*Vertex // insertion order; dead vertices stay as tombstones
	idxAddr  uint64    // simulated base of this shard's index table
	idxCap   uint64    // simulated bucket capacity (power of two)
	idxCount uint64

	// eprops holds the edge-property rows of the shard's vertices: row i of
	// eprops[v] is the Graph.edgeSlots slots of v.Out[i]. A vertex has an
	// entry only once SetEdgeProp has written one of its records, and the
	// map exists only once some vertex has; every mutation of v.Out keeps
	// the rows parallel to it (edgeprops.go).
	eprops map[*Vertex][]float64

	// meta holds the metadata blobs of the shard's vertices, under the same
	// rule: no map until a SetMeta, no entry for a vertex without one.
	meta map[*Vertex]map[string]meta
}

// Options configures a Graph.
type Options struct {
	// Directed selects edge semantics. Undirected graphs store each edge
	// as two mirrored records, one in each endpoint's list.
	Directed bool
	// TrackInEdges maintains per-vertex in-edge lists for directed graphs.
	// DeleteVertex on a directed graph requires it.
	TrackInEdges bool
	// Schema declares the initial property fields (may be nil).
	Schema *Schema
	// Tracker, when non-nil, receives the framework's simulated event
	// stream. Instrumented graphs must be used single-threaded.
	Tracker mem.Tracker
	// Arena supplies simulated addresses; a fresh one is created if nil.
	Arena *mem.Arena
	// EdgePropSlots reserves per-edge property slots, enabling the
	// SetEdgeProp/GetEdgeProp primitives (0 = weight-only edges).
	EdgePropSlots int
	// Shards is the lock-shard count (power of two; default 256).
	Shards int
	// Hint is the expected vertex count. It sizes the simulated index
	// tables, and the shard maps of a graph built by AddVertex; Bulk sizes
	// its Go-side index from its input instead.
	Hint int
}

// Graph is a dynamic vertex-centric property graph.
type Graph struct {
	directed  bool
	trackIn   bool
	edgeSlots int
	edgeRec   uint64 // simulated edge-record stride (base + prop slots)
	sch       *Schema
	shards    []shard
	mask      uint64
	arena     *mem.Arena
	trk       mem.Tracker

	// flat is the id→vertex table of a graph bulk-built over dense IDs: the
	// entry of every ID below len(flat), nil when absent. Slot id is read and
	// written under the lock of id's shard, like the map entry it stands
	// for; the table itself is made before the graph is shared and never
	// resized, so IDs past it live in the shard maps.
	flat []*Vertex

	// rows hands AddVertex the property rows of the vertices it creates.
	rows rowAllocator

	nVerts atomic.Int64
	nEdges atomic.Int64 // logical edges (an undirected edge counts once)
}

// ErrNeedInEdges is returned by DeleteVertex on a directed graph built
// without Options.TrackInEdges.
var ErrNeedInEdges = errors.New("property: DeleteVertex on a directed graph requires TrackInEdges")

// New returns an empty graph.
func New(opt Options) *Graph { return newGraph(opt, true) }

// newGraph is New with or without the shard maps: Bulk, which knows its
// vertices, leaves them out and gives the graph a flat table or exact-size
// maps instead.
func newGraph(opt Options, maps bool) *Graph {
	ns := opt.Shards
	if ns <= 0 {
		ns = 256
	}
	// Round shard count up to a power of two.
	p := 1
	for p < ns {
		p <<= 1
	}
	ns = p
	sch := opt.Schema
	if sch == nil {
		sch = NewSchema()
	}
	ar := opt.Arena
	if ar == nil {
		ar = mem.NewArena(1 << 20)
	}
	if opt.EdgePropSlots < 0 {
		opt.EdgePropSlots = 0
	}
	g := &Graph{
		directed:  opt.Directed,
		trackIn:   opt.TrackInEdges,
		edgeSlots: opt.EdgePropSlots,
		edgeRec:   uint64(edgeRecordBytes + opt.EdgePropSlots*8),
		sch:       sch,
		shards:    make([]shard, ns),
		mask:      uint64(ns - 1),
		arena:     ar,
		trk:       opt.Tracker,
	}
	per := opt.Hint/ns + 4
	for i := range g.shards {
		sh := &g.shards[i]
		sh.id = i
		if maps {
			sh.index = make(map[VertexID]*Vertex, per)
		}
		cap64 := uint64(16)
		for cap64 < uint64(2*per) {
			cap64 <<= 1
		}
		sh.idxCap = cap64
		sh.idxAddr = ar.Alloc(cap64*indexBucketBytes, 64)
	}
	return g
}

// Directed reports edge semantics.
func (g *Graph) Directed() bool { return g.directed }

// Schema returns the graph's property schema.
func (g *Graph) Schema() *Schema { return g.sch }

// Arena returns the simulated address arena (workloads allocate their local
// structures from it so that the profiler sees a unified address space).
func (g *Graph) Arena() *mem.Arena { return g.arena }

// Tracker returns the instrumentation sink (nil on native runs).
func (g *Graph) Tracker() mem.Tracker { return g.trk }

// SetTracker installs (or removes, with nil) the instrumentation sink.
// It must not be called concurrently with graph use.
func (g *Graph) SetTracker(t mem.Tracker) { g.trk = t }

// VertexCount returns the number of live vertices.
func (g *Graph) VertexCount() int { return int(g.nVerts.Load()) }

// EdgeCount returns the number of logical edges (an undirected edge counts
// once even though it is stored twice).
func (g *Graph) EdgeCount() int { return int(g.nEdges.Load()) }

// EnsureField registers a property field (idempotent) and returns its slot.
// Fields beyond the reserved capacity (16 slots, see Schema) panic, leaving
// the schema as it was: the simulated property block is sized at vertex
// creation.
func (g *Graph) EnsureField(name string) int {
	if i := g.sch.Field(name); i >= 0 {
		return i
	}
	if g.sch.NumFields() >= g.sch.cap {
		panic("property: schema capacity exceeded; declare fields in NewSchema")
	}
	return g.sch.add(name)
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (g *Graph) shardOf(id VertexID) *shard {
	return &g.shards[mix64(uint64(id))&g.mask]
}

func (sh *shard) bucketAddr(id VertexID) uint64 {
	return sh.idxAddr + (mix64(uint64(id))&(sh.idxCap-1))*indexBucketBytes
}

// lookup returns id's entry in the index, nil if it has none. The caller
// holds the lock of sh, id's shard.
func (g *Graph) lookup(sh *shard, id VertexID) *Vertex {
	if uint64(id) < uint64(len(g.flat)) {
		return g.flat[id]
	}
	return sh.index[id]
}

// setIndex makes v id's entry in the index, or drops the entry when v is
// nil. The caller holds the write lock of sh, id's shard.
func (g *Graph) setIndex(sh *shard, id VertexID, v *Vertex) {
	switch {
	case uint64(id) < uint64(len(g.flat)):
		g.flat[id] = v
	case v == nil:
		delete(sh.index, id)
	default:
		if sh.index == nil {
			sh.index = make(map[VertexID]*Vertex)
		}
		sh.index[id] = v
	}
}

// --- framework primitives -------------------------------------------------

// FindVertex looks the vertex up through the index, returning nil if absent.
func (g *Graph) FindVertex(id VertexID) *Vertex {
	sh := g.shardOf(id)
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(6)
		t.Load(sh.bucketAddr(id), indexBucketBytes)
		t.Branch(siteFindProbe, true)
	}
	sh.mu.RLock()
	v := g.lookup(sh, id)
	sh.mu.RUnlock()
	if t != nil {
		if v != nil {
			t.Load(v.addr, vertexRecordBytes)
		}
		t.Exit()
	}
	if v == nil || v.dead {
		return nil
	}
	return v
}

// AddVertex inserts a vertex, returning it and whether it was newly added.
// Adding an existing ID returns the existing vertex with added=false.
func (g *Graph) AddVertex(id VertexID) (v *Vertex, added bool) {
	sh := g.shardOf(id)
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(34) // hash, allocation, record init, index bookkeeping
		t.Load(sh.bucketAddr(id), indexBucketBytes)
	}
	sh.mu.Lock()
	if old := g.lookup(sh, id); old != nil && !old.dead {
		sh.mu.Unlock()
		if t != nil {
			t.Load(old.addr, vertexRecordBytes)
			t.Exit()
		}
		return old, false
	}
	v = &Vertex{ID: id}
	v.chunk, v.row = g.rows.next(g.sch.cap)
	g.setIndex(sh, id, v)
	sh.verts = append(sh.verts, v)
	grew := g.place(sh, v)
	sh.mu.Unlock()
	g.nVerts.Add(1)
	if t != nil {
		t.Store(sh.bucketAddr(id), indexBucketBytes)
		t.Store(v.addr, Size32(g.recordBytes()))
		if grew {
			// Rehash: stream the old table through the new one.
			t.Load(sh.idxAddr, Size32(sh.idxCap/2*indexBucketBytes))
			t.Store(sh.idxAddr, Size32(sh.idxCap*indexBucketBytes))
		}
		t.Exit()
	}
	return v, true
}

// recordBytes is the simulated size of a vertex record with its property
// block: every reserved slot, whatever has been written.
func (g *Graph) recordBytes() uint64 {
	return vertexRecordBytes + uint64(g.sch.cap)*propSlotBytes
}

// place gives a new vertex record of sh its simulated layout: the record's
// address and the simulated index table's count and doubling, which it
// reports. AddVertex calls it under the shard lock, Bulk, in vertex order,
// on a graph no one else can see yet.
func (g *Graph) place(sh *shard, v *Vertex) (grew bool) {
	v.addr = g.arena.Alloc(g.recordBytes(), 64)
	sh.idxCount++
	if grew = sh.idxCount*2 > sh.idxCap; grew {
		sh.idxCap *= 2
		sh.idxAddr = g.arena.Alloc(sh.idxCap*indexBucketBytes, 64)
	}
	return grew
}

// growEdges moves v's out-edge chunk to a new simulated address with doubled
// capacity, accounting for the copy.
func (g *Graph) growEdges(v *Vertex, t mem.Tracker) {
	oldCap := int(v.edgeCap)
	newCap := Index32(max(2*oldCap, 4))
	old := v.edgeAddr
	v.edgeAddr = g.arena.Alloc(uint64(newCap)*g.edgeRec, 64)
	if t != nil && oldCap > 0 {
		t.Load(old, Size32(uint64(oldCap)*g.edgeRec))
		t.Store(v.edgeAddr, Size32(uint64(oldCap)*g.edgeRec))
		t.Inst(uint64(4 + oldCap))
	}
	v.edgeCap = newCap
}

func (g *Graph) growIn(v *Vertex, t mem.Tracker) {
	oldCap := int(v.inCap)
	newCap := Index32(max(2*oldCap, 4))
	old := v.inAddr
	v.inAddr = g.arena.Alloc(uint64(newCap)*inRecordBytes, 64)
	if t != nil && oldCap > 0 {
		t.Load(old, Size32(uint64(oldCap)*inRecordBytes))
		t.Store(v.inAddr, Size32(uint64(oldCap)*inRecordBytes))
		t.Inst(uint64(4 + oldCap/2))
	}
	v.inCap = newCap
}

func (g *Graph) appendOut(src *Vertex, e Edge, t mem.Tracker) {
	if len(src.Out) >= int(src.edgeCap) {
		g.growEdges(src, t)
	}
	src.Out = append(src.Out, e)
	if g.edgeSlots > 0 {
		g.growEdgeProps(src)
	}
	if t != nil {
		t.Inst(10)
		t.Store(src.edgeAddr+uint64(len(src.Out)-1)*g.edgeRec, edgeRecordBytes)
		t.Store(src.addr, 8) // degree field
	}
}

func (g *Graph) appendIn(dst *Vertex, src VertexID, t mem.Tracker) {
	if len(dst.In) >= int(dst.inCap) {
		g.growIn(dst, t)
	}
	dst.In = append(dst.In, src)
	if t != nil {
		t.Inst(3)
		t.Store(dst.inAddr+uint64(len(dst.In)-1)*inRecordBytes, inRecordBytes)
	}
}

// lockPair acquires the shard locks of a and b in a deadlock-free order.
func (g *Graph) lockPair(a, b *shard) {
	if a == b {
		a.mu.Lock()
		return
	}
	if a.id < b.id {
		a.mu.Lock()
		b.mu.Lock()
	} else {
		b.mu.Lock()
		a.mu.Lock()
	}
}

func (g *Graph) unlockPair(a, b *shard) {
	a.mu.Unlock()
	if a != b {
		b.mu.Unlock()
	}
}

// AddEdge inserts an edge from src to dst with the given weight. Both
// endpoints must exist. On an undirected graph the edge is stored in both
// adjacency lists but counted once. Parallel edges are permitted (the
// generators emit simple graphs; TMorph uses FindEdge to avoid duplicates).
//
// On a directed graph without in-edge tracking the destination's vertex
// record is never dereferenced — only its index bucket is probed — so
// append-style construction (GCons) keeps the locality the paper observes.
func (g *Graph) AddEdge(src, dst VertexID, w float64) error {
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(22) // argument checks, allocation amortization, bookkeeping
	}
	sv := g.FindVertex(src)
	var dv *Vertex
	if g.directed && !g.trackIn {
		dsh := g.shardOf(dst)
		if t != nil {
			t.Inst(6)
			t.Load(dsh.bucketAddr(dst), indexBucketBytes)
		}
		dsh.mu.RLock()
		dv = g.lookup(dsh, dst)
		dsh.mu.RUnlock()
		if dv != nil && dv.dead {
			dv = nil
		}
	} else {
		dv = g.FindVertex(dst)
	}
	if sv == nil || dv == nil {
		if t != nil {
			t.Exit()
		}
		return errors.New("property: AddEdge endpoint not found")
	}
	ssh, dsh := g.shardOf(src), g.shardOf(dst)
	g.lockPair(ssh, dsh)
	g.appendOut(sv, Edge{To: dst, Weight: w}, t)
	if g.directed {
		if g.trackIn {
			g.appendIn(dv, src, t)
		}
	} else {
		g.appendOut(dv, Edge{To: src, Weight: w}, t)
	}
	g.unlockPair(ssh, dsh)
	g.nEdges.Add(1)
	if t != nil {
		t.Exit()
	}
	return nil
}

// FindEdge scans src's adjacency list for an edge to dst.
func (g *Graph) FindEdge(src, dst VertexID) *Edge {
	t := g.trk
	sv := g.FindVertex(src)
	if sv == nil {
		return nil
	}
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(4)
	}
	var found *Edge
	for i := range sv.Out {
		if t != nil {
			t.Load(sv.edgeAddr+uint64(i)*g.edgeRec, edgeRecordBytes)
			t.Branch(siteEdgeScan, sv.Out[i].To != dst)
			t.Inst(2)
		}
		if sv.Out[i].To == dst {
			found = &sv.Out[i]
			break
		}
	}
	if t != nil {
		t.Exit()
	}
	return found
}

// Neighbors streams src's outgoing edges to fn; fn returning false stops
// the traversal. The per-edge fetch is framework work; fn runs as user code.
func (g *Graph) Neighbors(v *Vertex, fn func(i int, e *Edge) bool) {
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(4)
		t.Load(v.addr, 16) // degree + list head
	}
	for i := range v.Out {
		if t != nil {
			t.Load(v.edgeAddr+uint64(i)*g.edgeRec, edgeRecordBytes)
			t.Branch(siteNeighborLoop, i+1 < len(v.Out))
			t.Inst(2)
			t.Exit() // user callback
		}
		cont := fn(i, &v.Out[i])
		if t != nil {
			t.Enter(mem.ClassFramework)
		}
		if !cont {
			break
		}
	}
	if t != nil {
		t.Exit()
	}
}

// GetProp reads property slot of v through the framework.
func (g *Graph) GetProp(v *Vertex, slot int) float64 {
	if t := g.trk; t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(3)
		t.Load(v.propAddr(slot), propSlotBytes)
		t.Exit()
	}
	return v.Prop(slot)
}

// SetProp writes property slot of v through the framework.
func (g *Graph) SetProp(v *Vertex, slot int, x float64) {
	if t := g.trk; t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(3)
		t.Store(v.propAddr(slot), propSlotBytes)
		t.Exit()
	}
	v.SetPropRaw(slot, x)
}

// removeOutRecord deletes the first record src->dst, reporting whether one
// was removed. Caller holds src's shard lock (or runs single-threaded).
func (g *Graph) removeOutRecord(src *Vertex, dst VertexID, t mem.Tracker) bool {
	for i := range src.Out {
		if t != nil {
			t.Load(src.edgeAddr+uint64(i)*g.edgeRec, edgeRecordBytes)
			t.Branch(siteEdgeScan, src.Out[i].To != dst)
			t.Inst(2)
		}
		if src.Out[i].To == dst {
			last := len(src.Out) - 1
			src.Out[i] = src.Out[last]
			src.Out = src.Out[:last]
			if g.edgeSlots > 0 {
				g.swapRemoveEdgeProps(src, i, last)
			}
			if t != nil {
				t.Store(src.edgeAddr+uint64(i)*g.edgeRec, edgeRecordBytes)
				t.Store(src.addr, 8)
				t.Inst(4)
			}
			return true
		}
	}
	return false
}

func (g *Graph) removeInRecord(dst *Vertex, src VertexID, t mem.Tracker) bool {
	for i := range dst.In {
		if t != nil {
			t.Load(dst.inAddr+uint64(i)*inRecordBytes, inRecordBytes)
			t.Branch(siteInScan, dst.In[i] != src)
			t.Inst(2)
		}
		if dst.In[i] == src {
			last := len(dst.In) - 1
			dst.In[i] = dst.In[last]
			dst.In = dst.In[:last]
			if t != nil {
				t.Store(dst.inAddr+uint64(i)*inRecordBytes, inRecordBytes)
				t.Inst(3)
			}
			return true
		}
	}
	return false
}

// DeleteEdge removes one src->dst edge (both mirrored records on an
// undirected graph). It reports whether an edge was removed.
func (g *Graph) DeleteEdge(src, dst VertexID) bool {
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(8)
	}
	sv := g.FindVertex(src)
	dv := g.FindVertex(dst)
	if sv == nil || dv == nil {
		if t != nil {
			t.Exit()
		}
		return false
	}
	ssh, dsh := g.shardOf(src), g.shardOf(dst)
	g.lockPair(ssh, dsh)
	removed := g.removeOutRecord(sv, dst, t)
	if removed {
		if g.directed {
			if g.trackIn {
				g.removeInRecord(dv, src, t)
			}
		} else {
			g.removeOutRecord(dv, src, t)
		}
		g.nEdges.Add(-1)
	}
	g.unlockPair(ssh, dsh)
	if t != nil {
		t.Exit()
	}
	return removed
}

// DeleteVertex removes the vertex and every edge incident to it. On a
// directed graph it requires TrackInEdges. It reports the number of logical
// edges removed, or an error.
//
// DeleteVertex must not run concurrently with other mutations (the GUp
// workload performs deletions from a single goroutine, as System G's
// transactional update path would).
func (g *Graph) DeleteVertex(id VertexID) (int, error) {
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(12)
	}
	v := g.FindVertex(id)
	if v == nil {
		if t != nil {
			t.Exit()
		}
		return 0, nil
	}
	if g.directed && !g.trackIn {
		if t != nil {
			t.Exit()
		}
		return 0, ErrNeedInEdges
	}
	removed := 0
	selfRecs := 0
	// Outgoing edges: delete the mirrored/in record at each destination.
	for _, e := range v.Out {
		if t != nil {
			t.Load(v.edgeAddr, edgeRecordBytes)
		}
		if e.To == id {
			selfRecs++
			continue // self loop: no remote record to clean up
		}
		if nb := g.FindVertex(e.To); nb != nil {
			if g.directed {
				g.removeInRecord(nb, id, t)
			} else {
				g.removeOutRecord(nb, id, t)
			}
		}
		removed++
	}
	if g.directed {
		// Incoming edges: delete the out record at each source.
		for _, srcID := range v.In {
			if t != nil {
				t.Load(v.inAddr, inRecordBytes)
			}
			if srcID == id {
				continue
			}
			if src := g.FindVertex(srcID); src != nil {
				if g.removeOutRecord(src, id, t) {
					removed++
				}
			}
		}
	}
	// A directed self loop is one record; an undirected one is mirrored.
	if g.directed {
		removed += selfRecs
	} else {
		removed += selfRecs / 2
	}
	v.Out = v.Out[:0]
	v.In = v.In[:0]
	v.dead = true
	sh := g.shardOf(id)
	sh.mu.Lock()
	g.setIndex(sh, id, nil)
	delete(sh.eprops, v)
	delete(sh.meta, v)
	sh.idxCount--
	sh.mu.Unlock()
	g.nVerts.Add(-1)
	if !g.directed {
		// Undirected logical edges were counted once; we visited each once
		// via the out list.
		g.nEdges.Add(int64(-removed))
	} else {
		g.nEdges.Add(int64(-removed))
	}
	if t != nil {
		t.Store(sh.bucketAddr(id), indexBucketBytes)
		t.Store(v.addr, vertexRecordBytes)
		t.Exit()
	}
	return removed, nil
}

// ForEachVertex visits every live vertex in deterministic (shard, insertion)
// order. fn runs as user code; the per-vertex fetch is framework work.
func (g *Graph) ForEachVertex(fn func(v *Vertex)) {
	t := g.trk
	for i := range g.shards {
		sh := &g.shards[i]
		for _, v := range sh.verts {
			if v.dead {
				continue
			}
			if t != nil {
				t.Enter(mem.ClassFramework)
				t.Inst(3)
				t.Load(v.addr, vertexRecordBytes)
				t.Exit()
			}
			fn(v)
		}
	}
}
