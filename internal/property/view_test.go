package property

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ID layouts for buildViewTestGraph: every vertex its own index; spread so
// the flat table is off the table; and dense but for one ID that is the
// last the flat table takes for that many live vertices, or the first it
// does not.
const (
	idsDense = iota
	idsSparse
	idsLastDense
	idsFirstSparse
)

// buildViewTestGraph returns a directed graph exercising the awkward
// resolution paths: the ID layout asked for, dead edge targets, and uneven
// degrees.
func buildViewTestGraph(t testing.TB, n int, seed int64, layout int) *Graph {
	t.Helper()
	g := New(Options{Directed: true, TrackInEdges: true, Shards: 16, Hint: n})
	rng := rand.New(rand.NewSource(seed))
	ids := make([]VertexID, n)
	for i := range ids {
		if layout == idsSparse {
			ids[i] = VertexID(i*97 + rng.Intn(13)*7919)
		} else {
			ids[i] = VertexID(i)
		}
	}
	live := n
	for i := 3; i < n; i += 11 {
		live-- // killed below
	}
	switch layout {
	case idsLastDense:
		ids[0] = VertexID(denseIDLimit(live) - 1)
	case idsFirstSparse:
		ids[0] = VertexID(denseIDLimit(live))
	}
	for _, id := range ids {
		g.AddVertex(id)
	}
	for i := 0; i < n; i++ {
		d := rng.Intn(8)
		if i%17 == 0 {
			d += 24 // a few heavy hitters
		}
		for k := 0; k < d; k++ {
			to := ids[rng.Intn(n)]
			if to == ids[i] {
				continue
			}
			if err := g.AddEdge(ids[i], to, float64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Kill some vertices so resolution must drop edges to dead targets.
	for i := 3; i < n; i += 11 {
		if _, err := g.DeleteVertex(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func viewsEqual(t testing.TB, label string, a, b *View) {
	t.Helper()
	if len(a.Verts) != len(b.Verts) {
		t.Fatalf("%s: vert count %d != %d", label, len(a.Verts), len(b.Verts))
	}
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			t.Fatalf("%s: Verts[%d] differ: %d vs %d", label, i, a.Verts[i].ID, b.Verts[i].ID)
		}
	}
	eq32 := func(name string, x, y []int32) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d != %d", label, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %d != %d", label, name, i, x[i], y[i])
			}
		}
	}
	eq32("NbrOff", a.NbrOff, b.NbrOff)
	eq32("Nbr", a.Nbr, b.Nbr)
	eq32("InOff", a.InOff, b.InOff)
	eq32("InNbr", a.InNbr, b.InNbr)
	if len(a.NbrW) != len(b.NbrW) {
		t.Fatalf("%s: NbrW length %d != %d", label, len(a.NbrW), len(b.NbrW))
	}
	for i := range a.NbrW {
		if a.NbrW[i] != b.NbrW[i] {
			t.Fatalf("%s: NbrW[%d] = %v != %v", label, i, a.NbrW[i], b.NbrW[i])
		}
	}
	for i, v := range a.Verts {
		if a.IndexOf(v.ID) != Index32(i) || b.IndexOf(v.ID) != Index32(i) {
			t.Fatalf("%s: IndexOf(%d) = %d and %d, want %d", label, v.ID, a.IndexOf(v.ID), b.IndexOf(v.ID), i)
		}
	}
}

// TestViewParallelMatchesReference checks the central contract: ViewWith
// output is a function of graph state only, identical across worker counts
// and identical to the retained seed implementation, whichever form the
// id→index table takes — flat, map, and the two ID sets one vertex either
// side of the line between them.
func TestViewParallelMatchesReference(t *testing.T) {
	for layout, name := range []string{"dense", "sparse", "last dense", "first sparse"} {
		for _, n := range []int{1, 5, 300, 3000} {
			g := buildViewTestGraph(t, n, int64(n)+3, layout)
			ref := g.ViewReference()
			for _, w := range []int{1, 2, 4, 8} {
				vw := g.ViewWith(ViewOpts{Workers: w})
				// The spread layout is past the limit only from a few dozen
				// vertices up; the other three are exact.
				if flat := vw.idx.flat != nil; flat != (layout == idsDense || layout == idsLastDense) && (layout != idsSparse || n >= 300) {
					t.Fatalf("%s n=%d: flat table = %v", name, n, flat)
				}
				viewsEqual(t, name, ref, vw)
			}
		}
	}
}

// fuzzID spreads a byte over the IDs that matter to the id→index table: a
// dense handful; the stretch that holds denseIDLimit(n)-1, the limit and
// limit+1 for every n a fuzz input can reach; and lone huge IDs, the
// largest among them.
func fuzzID(b byte) VertexID {
	switch {
	case b < 96:
		return VertexID(b % 24)
	case b < 240:
		return VertexID(1016 + uint64(b-96))
	default:
		return [...]VertexID{math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1 << 40, 1 << 32, 1<<31 - 1, 5000, 1160}[b%8]
	}
}

// permuted is ref under perm (perm[new] = old), spelled out serially: what
// ViewOpts.Order must produce, derived from the reference view alone.
func permuted(ref *View, perm []int32, directed bool) *View {
	n := len(perm)
	inv := make([]int32, n)
	for ni, oi := range perm {
		inv[oi] = int32(ni)
	}
	vw := &View{NbrOff: make([]int32, n+1), InOff: make([]int32, n+1), idx: idIndex{sparse: map[VertexID]int32{}}}
	in := make([][]int32, n)
	for i, o := range perm {
		vw.Verts = append(vw.Verts, ref.Verts[o])
		vw.idx.sparse[ref.Verts[o].ID] = int32(i)
		for k, j := range ref.Adj(o) {
			vw.Nbr = append(vw.Nbr, inv[j])
			vw.NbrW = append(vw.NbrW, ref.AdjW(o)[k])
			in[inv[j]] = append(in[inv[j]], int32(i))
		}
		vw.NbrOff[i+1] = int32(len(vw.Nbr))
	}
	if !directed {
		vw.InOff, vw.InNbr = vw.NbrOff, vw.Nbr
		return vw
	}
	for j, srcs := range in {
		vw.InNbr = append(vw.InNbr, srcs...)
		vw.InOff[j+1] = int32(len(vw.InNbr))
	}
	return vw
}

// FuzzViewBuild builds small adversarial graphs — IDs either side of the
// flat table's limit, huge IDs alone among dense ones, deleted vertices,
// self and duplicate edges, directed with and without in-lists and
// undirected — and holds ViewWith at 1, 2 and 4 workers, with and without
// an Order permutation, to ViewReference field by field: Verts, the five
// CSR arrays, IndexOf of every ID present and of absent ones, and the
// sys.index each vertex was left with. The reference resolves through its
// own map, so no lookup is shared with the path under test.
func FuzzViewBuild(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 3, 9, 0, 1, 9, 1, 2, 9, 2, 0, 9, 1, 1, 9, 0, 1})                   // directed triangle, a self loop, a duplicate
	f.Add([]byte{3, 1, 9, 0, 104, 9, 104, 1, 9, 2, 105, 0, 1, 0})                      // IDs 1024, 1025; then vertex 1 deleted
	f.Add([]byte{0x42, 7, 9, 0, 240, 9, 240, 1, 9, 1, 2})                              // 2^64-1 among dense ones, undirected, 2 shards
	f.Add([]byte{0x87, 5, 9, 0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 108, 9, 109, 0, 0, 2, 0})   // ordered, straddling IDs, a delete
	f.Add([]byte{0xc4, 2, 9, 5, 6, 9, 6, 7, 9, 7, 5, 9, 244, 5, 1, 6, 7, 9, 246, 247}) // ordered undirected, 8 shards, DeleteEdge
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opt := Options{Directed: data[0]&1 != 0, Shards: 1 << (data[0] >> 6)}
		opt.TrackInEdges = opt.Directed && data[0]&2 != 0
		g := New(opt)
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			a, b := fuzzID(ops[1]), fuzzID(ops[2])
			switch ops[0] % 8 {
			case 0:
				if !opt.Directed || opt.TrackInEdges {
					if _, err := g.DeleteVertex(a); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				g.DeleteEdge(a, b)
			default:
				g.AddVertex(a)
				g.AddVertex(b)
				if err := g.AddEdge(a, b, float64(ops[0])); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := Validate(g); err != nil {
			t.Fatal(err)
		}
		want := g.ViewReference()
		n := want.Len()
		var order OrderFunc
		if data[0]&4 != 0 && n > 0 {
			// A rotation of the reversed order: a bijection for every n.
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32((n - 1 - i + int(data[1])) % n)
			}
			order = func(int, []int32, []int32) []int32 { return perm }
			want = permuted(want, perm, opt.Directed)
		}
		idxSlot := g.EnsureField(SysIndexField)
		for _, workers := range []int{1, 2, 4} {
			vw := g.ViewWith(ViewOpts{Workers: workers, Order: order})
			viewsEqual(t, fmt.Sprintf("workers=%d", workers), want, vw)
			for i, v := range vw.Verts {
				if v.Prop(idxSlot) != float64(i) {
					t.Fatalf("workers=%d: sys.index of %d = %v, want %d", workers, v.ID, v.Prop(idxSlot), i)
				}
			}
			// Every ID an input can name, and the three around the limit for
			// this many vertices: absent ones must read -1.
			probe := []VertexID{VertexID(denseIDLimit(n) - 1), VertexID(denseIDLimit(n)), VertexID(denseIDLimit(n) + 1)}
			for b := 0; b < 256; b++ {
				probe = append(probe, fuzzID(byte(b)))
			}
			for _, id := range probe {
				if got, want := vw.IndexOf(id), want.IndexOf(id); got != want {
					t.Fatalf("workers=%d: IndexOf(%d) = %d, want %d", workers, id, got, want)
				}
			}
		}
	})
}

// TestReverseCSRParallelMatchesSerial is the satellite property test: the
// per-worker-histogram counting sort must match the serial counting sort
// exactly for arbitrary CSRs and worker counts.
func TestReverseCSRParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1024 + rng.Intn(6000) // above the serial-fallback floor
		off := make([]int32, n+1)
		for i := 0; i < n; i++ {
			off[i+1] = off[i] + int32(rng.Intn(6))
		}
		nbr := make([]int32, off[n])
		for i := range nbr {
			nbr[i] = int32(rng.Intn(n))
		}
		wantOff, wantNbr := reverseCSRSerial(n, off, nbr)
		for _, w := range []int{2, 3, 7, 16} {
			gotOff, gotNbr := reverseCSR(n, off, nbr, w)
			for i := range wantOff {
				if gotOff[i] != wantOff[i] {
					t.Fatalf("w=%d inOff[%d] = %d != %d", w, i, gotOff[i], wantOff[i])
				}
			}
			for i := range wantNbr {
				if gotNbr[i] != wantNbr[i] {
					t.Fatalf("w=%d inNbr[%d] = %d != %d", w, i, gotNbr[i], wantNbr[i])
				}
			}
		}
	}
}

// TestViewOrderComposition checks the remap contract: under any
// permutation the per-VertexID adjacency (neighbor ID multisets with
// weights), IndexOf, sys.index, and the reverse arrays all stay mutually
// consistent with the unordered baseline.
func TestViewOrderComposition(t *testing.T) {
	g := buildViewTestGraph(t, 500, 21, idsSparse)
	base := g.View()
	idxSlot := g.EnsureField(SysIndexField)

	reverse := func(n int) OrderFunc {
		return func(vn int, off, nbr []int32) []int32 {
			perm := make([]int32, vn)
			for i := range perm {
				perm[i] = int32(vn - 1 - i)
			}
			return perm
		}
	}
	shuffle := func(seed int64) OrderFunc {
		return func(vn int, off, nbr []int32) []int32 {
			perm := make([]int32, vn)
			for i := range perm {
				perm[i] = int32(i)
			}
			rand.New(rand.NewSource(seed)).Shuffle(vn, func(a, b int) {
				perm[a], perm[b] = perm[b], perm[a]
			})
			return perm
		}
	}

	type edge struct {
		to VertexID
		w  float64
	}
	adjOf := func(vw *View) map[VertexID][]edge {
		m := make(map[VertexID][]edge, vw.Len())
		for i, v := range vw.Verts {
			i32 := Index32(i)
			adj, wts := vw.Adj(i32), vw.AdjW(i32)
			es := make([]edge, len(adj))
			for k := range adj {
				es[k] = edge{vw.Verts[adj[k]].ID, wts[k]}
			}
			m[v.ID] = es
		}
		return m
	}
	want := adjOf(base)

	for name, ord := range map[string]OrderFunc{"reverse": reverse(0), "shuffle": shuffle(7)} {
		vw := g.ViewWith(ViewOpts{Order: ord, Workers: 4})
		if vw.Len() != base.Len() {
			t.Fatalf("%s: length changed", name)
		}
		got := adjOf(vw)
		for id, es := range want {
			ges := got[id]
			if len(ges) != len(es) {
				t.Fatalf("%s: vertex %d degree %d != %d", name, id, len(ges), len(es))
			}
			for k := range es {
				// Within-vertex neighbor order must be preserved exactly.
				if ges[k] != es[k] {
					t.Fatalf("%s: vertex %d edge %d = %v != %v", name, id, k, ges[k], es[k])
				}
			}
		}
		for i, v := range vw.Verts {
			if vw.IndexOf(v.ID) != Index32(i) {
				t.Fatalf("%s: IndexOf(%d) = %d, want %d", name, v.ID, vw.IndexOf(v.ID), i)
			}
			if int(v.Prop(idxSlot)) != i {
				t.Fatalf("%s: sys.index of %d = %v, want %d", name, v.ID, v.Prop(idxSlot), i)
			}
		}
		// Reverse arrays: brute-force in-neighbor sets from the forward CSR.
		n := vw.Len()
		wantIn := make([][]int32, n)
		for i := 0; i < n; i++ {
			for _, j := range vw.Adj(Index32(i)) {
				wantIn[j] = append(wantIn[j], Index32(i))
			}
		}
		for j := 0; j < n; j++ {
			got := vw.InAdj(Index32(j))
			if len(got) != len(wantIn[j]) {
				t.Fatalf("%s: in-degree of %d = %d, want %d", name, j, len(got), len(wantIn[j]))
			}
			for k := range got {
				// Sources were appended in ascending i, matching the
				// counting sort's ascending-source invariant.
				if got[k] != wantIn[j][k] {
					t.Fatalf("%s: InAdj(%d)[%d] = %d, want %d", name, j, k, got[k], wantIn[j][k])
				}
			}
		}
	}
}

func TestApplyOrderRejectsNonBijections(t *testing.T) {
	g := buildViewTestGraph(t, 40, 5, idsDense)
	for name, bad := range map[string]OrderFunc{
		"short":     func(n int, off, nbr []int32) []int32 { return make([]int32, n/2) },
		"duplicate": func(n int, off, nbr []int32) []int32 { return make([]int32, n) },
		"range": func(n int, off, nbr []int32) []int32 {
			p := make([]int32, n)
			for i := range p {
				p[i] = int32(n) // out of range
			}
			return p
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			g.ViewWith(ViewOpts{Order: bad})
		}()
	}
}

func TestRelayoutPreservesContent(t *testing.T) {
	g := buildViewTestGraph(t, 200, 9, idsDense)
	vw := g.View()
	type snap struct {
		id    VertexID
		props []float64
		out   []Edge
	}
	before := make([]snap, vw.Len())
	for i, v := range vw.Verts {
		props := make([]float64, g.Schema().Cap())
		for k := range props {
			props[k] = v.Prop(k)
		}
		before[i] = snap{v.ID, props, append([]Edge(nil), v.Out...)}
	}
	Relayout(g, vw)
	for i, v := range vw.Verts {
		if v.ID != before[i].id {
			t.Fatalf("vertex %d ID changed", i)
		}
		for k := range before[i].props {
			if v.Prop(k) != before[i].props[k] {
				t.Fatalf("vertex %d prop %d changed", i, k)
			}
		}
		for k := range v.Out {
			if v.Out[k].To != before[i].out[k].To || v.Out[k].Weight != before[i].out[k].Weight {
				t.Fatalf("vertex %d edge %d changed", i, k)
			}
		}
	}
	// Addresses follow view order: each vertex record sits after its
	// predecessor's.
	for i := 1; i < vw.Len(); i++ {
		if vw.Verts[i].addr <= vw.Verts[i-1].addr {
			t.Fatalf("relayout order broken at %d: %d <= %d", i, vw.Verts[i].addr, vw.Verts[i-1].addr)
		}
	}
}

func TestViewWithPartitions(t *testing.T) {
	g := buildViewTestGraph(t, 300, 11, idsDense)
	if g.View().Partitions() != nil {
		t.Fatal("default view should carry no partition plan")
	}
	for _, k := range []int{1, 3, 7} {
		vw := g.ViewWith(ViewOpts{Partitions: k, Workers: 4})
		plan := vw.Partitions()
		if plan == nil {
			t.Fatalf("k=%d: no plan recorded", k)
		}
		if plan.K != k {
			t.Fatalf("k=%d: plan has %d partitions", k, plan.K)
		}
		// The plan covers the view's index space and owns every vertex.
		if got := int(plan.Bounds[len(plan.Bounds)-1]); got != vw.Len() {
			t.Fatalf("k=%d: plan covers %d vertices, view has %d", k, got, vw.Len())
		}
		// The plan was built over the post-order CSR: boundary vertices
		// must be exactly those with a cross-partition out- or in-edge.
		for v := int32(0); int(v) < vw.Len(); v++ {
			cross := false
			for _, u := range vw.Adj(v) {
				if plan.Of(u) != plan.Of(v) {
					cross = true
				}
			}
			for _, u := range vw.InAdj(v) {
				if plan.Of(u) != plan.Of(v) {
					cross = true
				}
			}
			if plan.Boundary[v] != cross {
				t.Fatalf("k=%d: boundary[%d] = %v, want %v", k, v, plan.Boundary[v], cross)
			}
		}
	}
}

func TestRelayoutPartitionedVaultAlignment(t *testing.T) {
	g := buildViewTestGraph(t, 200, 13, idsDense)
	vw := g.ViewWith(ViewOpts{Partitions: 4})
	plan := vw.Partitions()
	const region = 1 << 20
	RelayoutPartitioned(g, vw, region)
	// Every partition's vertices land in a region that starts on a
	// region boundary and strictly after the previous partition's.
	var lastRegion uint64
	for q := 0; q < plan.K; q++ {
		lo, hi := plan.Range(q)
		if lo == hi {
			continue
		}
		first := vw.Verts[lo].addr
		reg := first / region
		if q > 0 && reg <= lastRegion {
			t.Fatalf("partition %d region %d not after previous %d", q, reg, lastRegion)
		}
		for _, v := range vw.Verts[lo:hi] {
			if v.addr/region != reg {
				t.Fatalf("partition %d: vertex record at %#x escapes region %d", q, v.addr, reg)
			}
		}
		lastRegion = reg
	}
	// Plan-less views fall back to the contiguous relayout.
	flat := g.View()
	RelayoutPartitioned(g, flat, region)
	for i := 1; i < flat.Len(); i++ {
		if flat.Verts[i].addr <= flat.Verts[i-1].addr {
			t.Fatalf("fallback relayout order broken at %d", i)
		}
	}
}
