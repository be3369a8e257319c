package property

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/partition"
)

// View is a stable snapshot of the live vertices, giving algorithms dense
// integer indices. Creating a view also publishes each vertex's index
// through the reserved "sys.index" property so algorithms can go from a
// framework vertex to its index with a property read.
//
// A view is additionally index-resolved: at snapshot time the adjacency of
// every live vertex is materialized into flat CSR-like arrays over the
// dense indices (NbrOff/Nbr/NbrW, plus reverse arrays for directed
// graphs). Native hot loops iterate these dense int32 arrays with zero
// per-edge FindVertex hash lookups — the pointer-chasing overhead the
// paper attributes to dynamic property-graph frameworks (§4.1) —
// while instrumented runs keep using the framework primitives so the
// tracker event stream is unchanged. Edges whose target is dead are
// dropped during resolution, mirroring the nil-check every workload
// performs after FindVertex.
//
// The default View() numbering is ID-sorted. ViewWith can compose a
// locality permutation (internal/order) into the dense space: Verts and
// every CSR array are permuted together, and IndexOf/sys.index follow, so
// workloads run unchanged and per-VertexID results are identical — only
// the memory layout the engine streams differs (DESIGN.md §8).
type View struct {
	Verts []*Vertex
	idx   idIndex // VertexID -> index into Verts

	// NbrOff has one entry per vertex plus a terminator: the out-neighbors
	// of dense index i occupy Nbr[NbrOff[i]:NbrOff[i+1]], in adjacency-list
	// order, with parallel edge weights in NbrW.
	NbrOff []int32
	Nbr    []int32
	NbrW   []float64

	// InOff/InNbr are the reverse (in-neighbor) arrays used by pull-phase
	// traversal. On undirected graphs they alias the forward arrays; on
	// directed graphs they are built from the out-edges regardless of
	// Options.TrackInEdges. In-neighbors of each vertex appear in
	// ascending dense-index order.
	InOff []int32
	InNbr []int32

	// segs are the View's segments (props.go), in index order, through
	// which SetColumn writes a field without reading Verts.
	segs []segment

	// parts is the partition plan recorded by ViewOpts.Partitions (nil
	// when none was requested). It is computed over the final index space
	// — after any ordering permutation — so each partition's vertices are
	// contiguous.
	parts *partition.Plan
}

// SysIndexField is the schema field that carries a vertex's View index.
const SysIndexField = "sys.index"

// OrderFunc computes a vertex-reordering permutation from the ID-sorted
// snapshot's resolved CSR: it receives the vertex count and the flat
// NbrOff/Nbr arrays and returns perm with perm[newIndex] = oldIndex.
// The permutation must be a bijection on [0,n); ViewWith panics otherwise.
// internal/order provides the standard strategies.
type OrderFunc func(n int, nbrOff, nbr []int32) []int32

// ViewOpts configures ViewWith.
type ViewOpts struct {
	// Workers bounds construction parallelism (<= 0 selects GOMAXPROCS).
	// Output is identical for every worker count, and construction emits
	// no tracker event, so instrumented graphs build in parallel too.
	Workers int
	// Order, when non-nil, is composed into the dense index space after
	// resolution. nil keeps the ID-sorted baseline numbering.
	Order OrderFunc
	// Partitions, when > 0, records an edge-balanced k-way contiguous
	// partition plan (internal/partition) in the view, computed over the
	// final — i.e. post-Order — index space. Adjacency arrays, engine
	// runs and per-vertex results are unaffected; the NDP placement
	// model reads the plan (DESIGN.md §10).
	Partitions int
}

// View snapshots the graph and index-resolves its adjacency with default
// options: ID-sorted numbering, parallel construction. It is O(V + E) over
// dense IDs and O(V log V + E) otherwise.
func (g *Graph) View() *View { return g.ViewWith(ViewOpts{}) }

// ViewWith snapshots the graph with explicit construction options. The
// resulting view's contents are deterministic — a function of the graph
// state and opt.Order only, never of opt.Workers or goroutine schedule.
func (g *Graph) ViewWith(opt ViewOpts) *View {
	workers := concurrent.Workers(opt.Workers)
	vs, idx := indexByID(g.gather(workers))
	idxSlot := g.EnsureField(SysIndexField)
	vw := &View{Verts: vs, idx: idx}
	vw.resolve(g.directed, workers)
	if opt.Order != nil {
		vw.applyOrder(opt.Order(len(vs), vw.NbrOff, vw.Nbr), g.directed, workers)
	}
	if opt.Partitions > 0 {
		vw.parts = partition.New(len(vs), vw.NbrOff, vw.Nbr, vw.InOff, vw.InNbr,
			opt.Partitions, partition.EdgeBalanced)
	}
	g.publishIndex(vw, idxSlot)
	return vw
}

// ViewReference is the seed serial implementation (shard-order gather,
// single-threaded sort, map-probed resolution), retained as the honest
// wall-clock baseline for the view-construction benchmarks and as a
// differential-testing oracle for ViewWith: it resolves through a map of
// its own, never through the flat table, so the two share no lookup. Its
// output is identical to View().
func (g *Graph) ViewReference() *View {
	n := g.VertexCount()
	vs := make([]*Vertex, 0, n)
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, v := range sh.verts {
			if !v.dead {
				vs = append(vs, v)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	idxSlot := g.EnsureField(SysIndexField)
	pos := make(map[VertexID]int32, len(vs))
	for i, v := range vs {
		pos[v.ID] = narrow.Index32(i)
	}
	vw := &View{Verts: vs, idx: idIndex{sparse: pos}}
	vw.resolveReference(g.directed, pos)
	g.publishIndex(vw, idxSlot)
	return vw
}

// idVert is a snapshot entry: a vertex and, beside the pointer, its ID, so
// that ordering the snapshot never goes back to the vertex records, which
// a walk in shard order finds scattered.
type idVert struct {
	id VertexID
	v  *Vertex
}

// gather snapshots the live vertices of every shard under its read lock,
// a contiguous range of shards per worker, and returns one part per worker.
// The parts are in shard order; nothing downstream depends on that, since
// indexByID orders by ID.
func (g *Graph) gather(workers int) [][]idVert {
	bounds := concurrent.ChunkBounds(len(g.shards), workers)
	parts := make([][]idVert, len(bounds)-1)
	concurrent.ParallelRange(len(parts), len(parts), func(lo, hi int) {
		for w := lo; w < hi; w++ {
			room := 0
			for i := bounds[w]; i < bounds[w+1]; i++ {
				sh := &g.shards[i]
				sh.mu.RLock()
				room += len(sh.verts)
				sh.mu.RUnlock()
			}
			part := make([]idVert, 0, room)
			for i := bounds[w]; i < bounds[w+1]; i++ {
				sh := &g.shards[i]
				sh.mu.RLock()
				for _, v := range sh.verts {
					if !v.dead {
						part = append(part, idVert{v.ID, v})
					}
				}
				sh.mu.RUnlock()
			}
			parts[w] = part
		}
	})
	return parts
}

// indexByID puts the snapshot in ID order and returns it with its id→index
// table. Dense IDs (denseIDLimit) are never compared: every vertex is
// scattered to slot[ID] of a pointer table, then one walk in ID order
// compacts the table in place and writes each vertex's final index into
// flat — O(n + maxID), no sort, no map. Sparse IDs go through one sort and
// into a map. Either way the result depends on the set of vertices only,
// not on how gather split them.
func indexByID(parts [][]idVert) ([]*Vertex, idIndex) {
	n := 0
	var maxID VertexID
	for _, part := range parts {
		n += len(part)
		for _, e := range part {
			maxID = max(maxID, e.id)
		}
	}
	if !denseIDs(n, maxID) {
		all := slices.Concat(parts...)
		slices.SortFunc(all, func(a, b idVert) int { return cmp.Compare(a.id, b.id) })
		verts := make([]*Vertex, n)
		sparse := make(map[VertexID]int32, n)
		for i, e := range all {
			verts[i] = e.v
			sparse[e.id] = narrow.Index32(i)
		}
		return verts, idIndex{sparse: sparse}
	}
	slot := make([]*Vertex, maxID+1)
	for _, part := range parts {
		for _, e := range part {
			slot[e.id] = e.v
		}
	}
	flat := make([]int32, len(slot))
	i := 0
	for id, v := range slot {
		flat[id] = -1
		if v != nil {
			flat[id] = narrow.Index32(i)
			slot[i] = v
			i++
		}
	}
	return slot[:n:n], idIndex{flat: flat}
}

// resolve builds the flat adjacency arrays from the snapshot. The output
// is byte-identical to resolveReference for every worker count: pass one
// counts each vertex's live out-degree into its own offset slot, pass two
// fills each vertex's private [off[i], off[i+1]) output range, so no two
// workers ever write the same element.
func (vw *View) resolve(directed bool, workers int) {
	n := len(vw.Verts)
	idx := &vw.idx
	off := make([]int32, n+1)
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := int32(0)
			out := vw.Verts[i].Out
			for k := range out {
				if idx.get(out[k].To) >= 0 {
					d++
				}
			}
			off[i+1] = d
		}
	})
	prefixSum32(off)
	deg := int(off[n])
	nbr := make([]int32, deg)
	wts := make([]float64, deg)
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Each vertex fills its own CSR row [off[i], off[i+1]), disjoint
			// across i by prefixSum32 — cutting the rows out makes them
			// worker-owned windows.
			row := nbr[off[i]:off[i+1]]
			wrow := wts[off[i]:off[i+1]]
			p := 0
			out := vw.Verts[i].Out
			for k := range out {
				if j := idx.get(out[k].To); j >= 0 {
					row[p] = j
					wrow[p] = out[k].Weight
					p++
				}
			}
		}
	})
	vw.NbrOff, vw.Nbr, vw.NbrW = off, nbr, wts
	if !directed {
		vw.InOff, vw.InNbr = off, nbr
		return
	}
	vw.InOff, vw.InNbr = reverseCSR(n, off, nbr, workers)
}

// resolveReference is the seed serial resolution kept verbatim as the
// differential oracle (see ViewReference).
func (vw *View) resolveReference(directed bool, pos map[VertexID]int32) {
	n := len(vw.Verts)
	off := make([]int32, n+1)
	deg := 0
	for i, v := range vw.Verts {
		off[i] = narrow.Index32(deg)
		for k := range v.Out {
			if _, ok := pos[v.Out[k].To]; ok {
				deg++
			}
		}
	}
	off[n] = narrow.Index32(deg)
	nbr := make([]int32, deg)
	wts := make([]float64, deg)
	p := 0
	for _, v := range vw.Verts {
		for k := range v.Out {
			if j, ok := pos[v.Out[k].To]; ok {
				nbr[p] = j
				wts[p] = v.Out[k].Weight
				p++
			}
		}
	}
	vw.NbrOff, vw.Nbr, vw.NbrW = off, nbr, wts
	if !directed {
		vw.InOff, vw.InNbr = off, nbr
		return
	}
	inOff, inNbr := reverseCSRSerial(n, off, nbr)
	vw.InOff, vw.InNbr = inOff, inNbr
}

// prefixSum32 turns per-slot counts (off[i+1] = count of i, off[0] = 0)
// into exclusive prefix offsets, in place.
func prefixSum32(off []int32) {
	var run int32
	for i := 1; i < len(off); i++ {
		run += off[i]
		off[i] = run
	}
}

// reverseCSR builds the in-neighbor arrays: a counting sort of the forward
// edges by target, sources in ascending order within each bucket. The
// parallel path uses per-worker histograms — hist[w*n+j] counts worker w's
// edges into bucket j, then is transformed in place into worker w's write
// cursor inside bucket j — so the fill phase is write-disjoint and the
// output matches the serial counting sort exactly (workers own ascending
// contiguous source ranges).
func reverseCSR(n int, off, nbr []int32, workers int) (inOff, inNbr []int32) {
	if workers > n/1024 {
		// Histogram memory is workers*n; small graphs gain nothing.
		workers = n / 1024
	}
	if workers > 16 {
		workers = 16
	}
	if workers <= 1 || n == 0 {
		return reverseCSRSerial(n, off, nbr)
	}
	bounds := concurrent.ChunkBounds(n, workers)
	w := len(bounds) - 1
	hist := make([]int32, w*n)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			h := hist[wi*n : wi*n+n]
			for _, j := range nbr[off[bounds[wi]]:off[bounds[wi+1]]] {
				h[j]++
			}
		}(wi)
	}
	wg.Wait()
	// Column scan: per bucket j, replace counts with each worker's
	// exclusive start inside the bucket and record the bucket total.
	inOff = make([]int32, n+1)
	concurrent.ParallelRange(n, w, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var run int32
			for wi := 0; wi < w; wi++ {
				c := hist[wi*n+j]
				hist[wi*n+j] = run
				run += c
			}
			inOff[j+1] = run
		}
	})
	prefixSum32(inOff)
	inNbr = make([]int32, off[n])
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			h := hist[wi*n : wi*n+n]
			// Worker wi's slots in bucket j are
			// [inOff[j]+hist[wi*n+j], inOff[j]+hist[wi*n+j]+count), carved
			// by the column scan above, so the workers' writes are
			// disjoint: the per-bucket counts sum monotonically across
			// workers. TestReverseCSRParallelMatchesSerial pins it against
			// the serial counting sort.
			for i := bounds[wi]; i < bounds[wi+1]; i++ {
				for k := off[i]; k < off[i+1]; k++ {
					j := nbr[k]
					inNbr[inOff[j]+h[j]] = narrow.Index32(i)
					h[j]++
				}
			}
		}(wi)
	}
	wg.Wait()
	return inOff, inNbr
}

// reverseCSRSerial is the seed counting sort (also the oracle the property
// test in view_test.go checks the parallel path against).
func reverseCSRSerial(n int, off, nbr []int32) (inOff, inNbr []int32) {
	inOff = make([]int32, n+1)
	for _, j := range nbr {
		inOff[j+1]++
	}
	for i := 0; i < n; i++ {
		inOff[i+1] += inOff[i]
	}
	inNbr = make([]int32, len(nbr))
	fill := make([]int32, n)
	for i := 0; i < n; i++ {
		for k := off[i]; k < off[i+1]; k++ {
			j := nbr[k]
			inNbr[inOff[j]+fill[j]] = narrow.Index32(i)
			fill[j]++
		}
	}
	return inOff, inNbr
}

// applyOrder composes perm (perm[new] = old) into the view: Verts, the
// forward CSR and the id→index table move together, and the reverse arrays are rebuilt so
// in-neighbors stay ascending in the new index space. Within-vertex
// neighbor order is preserved under relabeling.
func (vw *View) applyOrder(perm []int32, directed bool, workers int) {
	n := len(vw.Verts)
	if len(perm) != n {
		panic(fmt.Sprintf("property: order permutation has %d entries for %d vertices", len(perm), n))
	}
	inv := make([]int32, n)
	seen := make([]bool, n)
	for ni, oi := range perm {
		if oi < 0 || int(oi) >= n || seen[oi] {
			panic(fmt.Sprintf("property: order permutation is not a bijection at entry %d (old index %d)", ni, oi))
		}
		seen[oi] = true
		inv[oi] = narrow.Index32(ni)
	}

	oldVerts, oldOff, oldNbr, oldWts := vw.Verts, vw.NbrOff, vw.Nbr, vw.NbrW
	verts := make([]*Vertex, n)
	off := make([]int32, n+1)
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := perm[i]
			verts[i] = oldVerts[o]
			off[i+1] = oldOff[o+1] - oldOff[o]
		}
	})
	prefixSum32(off)
	nbr := make([]int32, len(oldNbr))
	wts := make([]float64, len(oldWts))
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := perm[i]
			s := oldOff[o]
			// Row [off[i], off[i+1]) is vertex i's alone (prefixSum32), so
			// the cut slices are worker-owned windows.
			row := nbr[off[i]:off[i+1]]
			wrow := wts[off[i]:off[i+1]]
			for k := range row {
				row[k] = inv[oldNbr[s+narrow.Index32(k)]]
				wrow[k] = oldWts[s+narrow.Index32(k)]
			}
		}
	})
	for i, v := range verts {
		vw.idx.put(v.ID, narrow.Index32(i))
	}
	vw.Verts, vw.NbrOff, vw.Nbr, vw.NbrW = verts, off, nbr, wts
	if !directed {
		vw.InOff, vw.InNbr = off, nbr
		return
	}
	vw.InOff, vw.InNbr = reverseCSR(n, off, nbr, workers)
}

// publishIndex writes each snapshot vertex's dense index into its
// sys.index property slot, holding every shard's write lock meanwhile so
// that the publication excludes the mutations those locks order, another
// View's publication among them. Its one walk over the vertex records, in
// view order, finds the View's segments; the index column is then written
// segment by segment, as SetColumn writes a kernel's results.
func (g *Graph) publishIndex(vw *View, idxSlot int) {
	for s := range g.shards {
		g.shards[s].mu.Lock()
	}
	vw.segs = segmentsOf(vw.Verts)
	for k := range vw.segs {
		lo, dst := vw.span(k, idxSlot)
		for j := range dst {
			dst[j] = float64(lo + j)
		}
	}
	for s := range g.shards {
		g.shards[s].mu.Unlock()
	}
}

// segmentsOf returns the segments of vs. The walk over the records marks
// where a segment starts in a bitmap and counts them, so the table is made
// at its final size; filling it reads back only the records that start one.
// A bulk-built graph's ID-ordered View is a few segments per chunk, a View
// permuted by an ordering or over rows given in first-mention order is up
// to one per vertex.
func segmentsOf(vs []*Vertex) []segment {
	starts := make([]uint64, (len(vs)+63)/64)
	nseg := 0
	var chunk *propChunk
	row := 0
	for i, v := range vs {
		if v.chunk != chunk || int(v.row) != row+1 {
			starts[i/64] |= 1 << (i % 64)
			nseg++
		}
		chunk, row = v.chunk, int(v.row)
	}
	segs := make([]segment, 0, nseg)
	for w, word := range starts {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			segs = append(segs, segment{start: narrow.Index32(i), row: vs[i].row, chunk: vs[i].chunk})
		}
	}
	return segs
}

// IndexOf returns the dense index of id, or -1.
func (vw *View) IndexOf(id VertexID) int32 { return vw.idx.get(id) }

// Len returns the number of vertices in the view.
func (vw *View) Len() int { return len(vw.Verts) }

// Degree returns the resolved out-degree of dense index i (edges to dead
// vertices excluded).
func (vw *View) Degree(i int32) int32 { return vw.NbrOff[i+1] - vw.NbrOff[i] }

// Adj returns the resolved out-neighbor indices of dense index i.
func (vw *View) Adj(i int32) []int32 { return vw.Nbr[vw.NbrOff[i]:vw.NbrOff[i+1]] }

// AdjW returns the edge weights parallel to Adj(i).
func (vw *View) AdjW(i int32) []float64 { return vw.NbrW[vw.NbrOff[i]:vw.NbrOff[i+1]] }

// InAdj returns the in-neighbor indices of dense index i (equal to Adj on
// undirected graphs).
func (vw *View) InAdj(i int32) []int32 { return vw.InNbr[vw.InOff[i]:vw.InOff[i+1]] }

// EdgeTotal returns the number of resolved directed edge records.
func (vw *View) EdgeTotal() int64 { return int64(len(vw.Nbr)) }

// Partitions returns the partition plan recorded at construction, or nil
// when the view was built without ViewOpts.Partitions.
func (vw *View) Partitions() *partition.Plan { return vw.parts }
