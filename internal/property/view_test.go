package property

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/narrow"
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
			d += 40 // a few heavy hitters, rows of several dozen records
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
		if a.IndexOf(v.ID) != narrow.Index32(i) || b.IndexOf(v.ID) != narrow.Index32(i) {
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

// TestViewWithIgnoresTracker holds ViewWith to its contract on an
// instrumented graph: with a tracker installed, a 4-worker build equals
// the View of the bare graph and records no event.
func TestViewWithIgnoresTracker(t *testing.T) {
	g := buildViewTestGraph(t, 3000, 7, idsSparse)
	want := g.ViewWith(ViewOpts{Workers: 4})
	c := mem.NewCounting()
	g.SetTracker(c)
	defer g.SetTracker(nil)
	viewsEqual(t, "tracked", g.ViewWith(ViewOpts{Workers: 4}), want)
	if c.Loads != [2]uint64{} || c.Stores != [2]uint64{} || c.Insts != [2]uint64{} || c.Branches != [2]uint64{} {
		t.Errorf("ViewWith recorded tracker events: %+v", *c)
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
// ViewOpts.Order must produce, derived from the reference view alone. Each
// row is ref's row renamed and then sorted by its new indices and weights.
func permuted(ref *View, perm []int32, directed bool) *View {
	n := len(perm)
	inv := make([]int32, n)
	for ni, oi := range perm {
		inv[oi] = int32(ni)
	}
	vw := &View{NbrOff: make([]int32, n+1), idx: idIndex{sparse: map[VertexID]int32{}}}
	type record struct {
		to int32
		w  float64
	}
	for i, o := range perm {
		vw.Verts = append(vw.Verts, ref.Verts[o])
		vw.idx.sparse[ref.Verts[o].ID] = int32(i)
		var recs []record
		for k, j := range ref.Adj(o) {
			recs = append(recs, record{inv[j], ref.AdjW(o)[k]})
		}
		slices.SortFunc(recs, func(a, b record) int {
			return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(weightKey(a.w), weightKey(b.w)))
		})
		for _, r := range recs {
			vw.Nbr = append(vw.Nbr, r.to)
			vw.NbrW = append(vw.NbrW, r.w)
		}
		vw.NbrOff[i+1] = int32(len(vw.Nbr))
	}
	vw.InOff, vw.InNbr = vw.NbrOff, vw.Nbr
	if directed {
		vw.InOff, vw.InNbr = reverseCSRSerial(n, vw.NbrOff, vw.Nbr)
	}
	return vw
}

// rowsSorted fails unless every row of vw, and every in-row, ascends, and
// the records of a row to one destination ascend by weight.
func rowsSorted(t testing.TB, label string, vw *View) {
	t.Helper()
	for i := range vw.Verts {
		for name, row := range map[string][]int32{"Adj": vw.Adj(int32(i)), "InAdj": vw.InAdj(int32(i))} {
			if !slices.IsSorted(row) {
				t.Fatalf("%s: %s(%d) = %v is not sorted", label, name, i, row)
			}
		}
		row, w := vw.Adj(int32(i)), vw.AdjW(int32(i))
		for k := 1; k < len(row); k++ {
			if row[k] == row[k-1] && weightKey(w[k]) < weightKey(w[k-1]) {
				t.Fatalf("%s: row %d: records to %d out of weight order, %v then %v", label, i, row[k], w[k-1], w[k])
			}
		}
	}
}

// FuzzViewBuild builds small adversarial graphs — IDs either side of the
// flat table's limit, huge IDs alone among dense ones, deleted vertices,
// self and duplicate edges (a byte sets the weight, so duplicates differ),
// directed with and without in-lists and undirected — and holds ViewWith
// at 1, 2 and 4 workers, with and without an Order permutation, to
// ViewReference field by field: Verts, the five CSR arrays, IndexOf of
// every ID present and of absent ones, and the sys.index each vertex was
// left with. Every row and in-row of both must ascend, and the records of
// a row to one destination by weight. The reference
// resolves through its own map, so no lookup is shared with the path under
// test.
func FuzzViewBuild(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 3, 9, 0, 1, 9, 1, 2, 9, 2, 0, 9, 1, 1, 9, 0, 1})                   // directed triangle, a self loop, a duplicate
	f.Add([]byte{3, 1, 9, 0, 104, 9, 104, 1, 9, 2, 105, 0, 1, 0})                      // IDs 1024, 1025; then vertex 1 deleted
	f.Add([]byte{0x42, 7, 9, 0, 240, 9, 240, 1, 9, 1, 2})                              // 2^64-1 among dense ones, undirected, 2 shards
	f.Add([]byte{0x87, 5, 9, 0, 1, 9, 1, 2, 9, 2, 3, 9, 3, 108, 9, 109, 0, 0, 2, 0})   // ordered, straddling IDs, a delete
	f.Add([]byte{0xc4, 2, 9, 5, 6, 9, 6, 7, 9, 7, 5, 9, 244, 5, 1, 6, 7, 9, 246, 247}) // ordered undirected, 8 shards, DeleteEdge
	f.Add([]byte{0x04, 1, 2, 1, 3, 3, 1, 2, 4, 1, 2, 1, 1, 3, 1, 2, 1, 5, 0, 2})       // ordered undirected, duplicates; 1->2 and 2->1 left with weights 3 and 4
	f.Add([]byte{0x07, 2, 2, 1, 3, 3, 1, 2, 4, 1, 2, 6, 1, 2, 1, 1, 3, 5, 0, 2})       // ordered directed, duplicates of three weights
	f.Add([]byte{0x04, 0, 2, 1, 0, 3, 1, 2, 4, 2, 1, 5, 3, 3})                         // ordered undirected, a row with a repeated, out-of-order destination, a self loop
	f.Add([]byte{0x04, 0, 2, 1, 2, 3, 1, 3, 4, 1, 3, 1, 1, 2})                         // ordered undirected; deleting 1->2 swaps 1's records to 3 out of weight order
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
		rowsSorted(t, "reference", want)
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
			rowsSorted(t, fmt.Sprintf("workers=%d", workers), vw)
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

// randomCSR returns a CSR over n vertices, n above transpose's
// serial-fallback floor, with up to five records a row to random
// destinations; w[k] is k, so a weight names its record.
func randomCSR(rng *rand.Rand) (n int, off, nbr []int32, w []float64) {
	n = 1024 + rng.Intn(6000)
	off = make([]int32, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int32(rng.Intn(6))
	}
	nbr = make([]int32, off[n])
	w = make([]float64, off[n])
	for i := range nbr {
		nbr[i] = int32(rng.Intn(n))
		w[i] = float64(i)
	}
	return n, off, nbr, w
}

// TestReverseCSRParallelMatchesSerial: the in-lists of a directed View are
// transpose without a permutation or weights, and the per-worker-histogram
// counting sort must match the serial counting sort exactly for arbitrary
// CSRs and worker counts.
func TestReverseCSRParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n, off, nbr, _ := randomCSR(rng)
		wantOff, wantNbr := reverseCSRSerial(n, off, nbr)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := transpose(csrRows{off: off, nbr: nbr}, nil, nil, workers)
			if !slices.Equal(got.off, wantOff) || !slices.Equal(got.nbr, wantNbr) || got.w != nil {
				t.Fatalf("workers=%d: transpose differs from the serial counting sort", workers)
			}
		}
	}
}

// TestTransposeMatchesSerial is the property test of transpose under a
// permutation: for arbitrary CSRs and worker counts it must equal the
// serial counting sort of the renamed rows, carrying each record's weight.
func TestTransposeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n, off, nbr, w := randomCSR(rng)
		perm := rng.Perm(n)
		perm32, inv := make([]int32, n), make([]int32, n)
		for i, o := range perm {
			perm32[i], inv[o] = int32(o), int32(i)
		}
		// The renamed rows, serially.
		rOff, rNbr := make([]int32, n+1), []int32{}
		for i, o := range perm32 {
			for k := off[o]; k < off[o+1]; k++ {
				rNbr = append(rNbr, inv[nbr[k]])
			}
			rOff[i+1] = int32(len(rNbr))
		}
		pOff, pNbr := reverseCSRSerial(n, rOff, rNbr)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := transpose(csrRows{off, nbr, w}, perm32, inv, workers)
			gotOff, gotNbr, gotW := got.off, got.nbr, got.w
			if !slices.Equal(gotOff, pOff) || !slices.Equal(gotNbr, pNbr) {
				t.Fatalf("workers=%d: permuted transpose differs from the serial counting sort", workers)
			}
			// Each output entry s in row d carries the weight of a record
			// s->d, and every record's weight appears once.
			seen := make([]bool, len(w))
			for d := 0; d < n; d++ {
				for k := gotOff[d]; k < gotOff[d+1]; k++ {
					rec := int(gotW[k])
					o := sort.Search(n, func(i int) bool { return int(off[i+1]) > rec })
					if seen[rec] || inv[o] != gotNbr[k] || inv[nbr[rec]] != int32(d) {
						t.Fatalf("workers=%d: weight %v beside %d in row %d", workers, gotW[k], gotNbr[k], d)
					}
					seen[rec] = true
				}
			}
		}
	}
}

// TestHeapSortRow holds resolve's fallback sort to a sort of (destination,
// weight) records by destination and then weight, destinations up to the
// int32 limit and repeated weights included, and requires it to allocate
// nothing.
func TestHeapSortRow(t *testing.T) {
	type record struct {
		to int32
		w  float64
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		row, w := make([]int32, n), make([]float64, n)
		want := make([]record, n)
		for k := range row {
			row[k], w[k] = int32(rng.Intn(n/3+1)), float64(rng.Intn(5)-2)
			if trial%5 == 0 {
				row[k] = math.MaxInt32 - row[k]
			}
			want[k] = record{row[k], w[k]}
		}
		slices.SortFunc(want, func(a, b record) int { return cmp.Or(cmp.Compare(a.to, b.to), cmp.Compare(a.w, b.w)) })
		heapSortRow(row, w)
		for k, r := range want {
			if row[k] != r.to || w[k] != r.w {
				t.Fatalf("trial %d: record %d = (%d, %v), want (%d, %v)", trial, k, row[k], w[k], r.to, r.w)
			}
		}
	}
	orig := make([]int32, 64)
	for k := range orig {
		orig[k] = int32(len(orig) - k/2)
	}
	row, w := make([]int32, len(orig)), make([]float64, len(orig))
	allocs := testing.AllocsPerRun(10, func() {
		copy(row, orig)
		heapSortRow(row, w)
	})
	if allocs != 0 {
		t.Errorf("heapSortRow made %v allocations, want 0", allocs)
	}
}

// TestWeightKey checks that weightKey orders weights as numbers, -0 before
// +0, on both sides of zero.
func TestWeightKey(t *testing.T) {
	ws := []float64{math.Inf(-1), -3.5, -1, math.Copysign(0, -1), 0, 1e-300, 2, math.Inf(1)}
	for k := 1; k < len(ws); k++ {
		if weightKey(ws[k-1]) >= weightKey(ws[k]) {
			t.Errorf("weightKey(%v) >= weightKey(%v)", ws[k-1], ws[k])
		}
	}
}

// TestResolveSortsRows stores rows of 1, 2, 13, 14 and 96 records, each
// in descending destination order with every destination twice at two
// weights stored in descending order, so every record has to move: as far
// as maxShift places at 13 records, one place further at 14, which leaves
// the row to heapSortRow. Directed and undirected, at 1, 2 and 4 workers,
// the View must equal ViewReference with every row ascending by
// destination and then weight.
func TestResolveSortsRows(t *testing.T) {
	lengths := []int{1, 2, maxShift + 1, maxShift + 2, 96}
	for _, directed := range []bool{true, false} {
		g := New(Options{Directed: directed, TrackInEdges: directed, Shards: 4})
		nv := len(lengths) + slices.Max(lengths)
		for i := 0; i < nv; i++ {
			g.AddVertex(VertexID(i))
		}
		for i, l := range lengths {
			for k := 0; k < l; k++ {
				to := VertexID(len(lengths) + (l-1-k)/2)
				if err := g.AddEdge(VertexID(i), to, float64(l-k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := g.ViewReference()
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("directed=%v workers=%d", directed, workers)
			vw := g.ViewWith(ViewOpts{Workers: workers})
			viewsEqual(t, label, want, vw)
			rowsSorted(t, label, vw)
			for i, l := range lengths {
				if d := vw.Degree(int32(i)); int(d) != l {
					t.Fatalf("%s: row %d has %d records, want %d", label, i, d, l)
				}
			}
		}
	}
}

// TestOrderFuncMayKeepItsArrays: ViewWith writes the ordered View's rows
// into arrays of its own, so the NbrOff and Nbr an OrderFunc was handed
// read the same after the build as during it.
func TestOrderFuncMayKeepItsArrays(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := New(Options{Directed: directed, Shards: 4})
		for i := 0; i < 50; i++ {
			g.AddVertex(VertexID(i))
		}
		for i := 0; i < 200; i++ {
			if err := g.AddEdge(VertexID(i%50), VertexID(i*7%50), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		var kept, keptOff, seen, seenOff []int32
		order := func(n int, off, nbr []int32) []int32 {
			kept, keptOff = nbr, off
			seen, seenOff = slices.Clone(nbr), slices.Clone(off)
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32(n - 1 - i)
			}
			return perm
		}
		g.ViewWith(ViewOpts{Order: order})
		if !slices.Equal(kept, seen) || !slices.Equal(keptOff, seenOff) {
			t.Errorf("directed=%v: the arrays the OrderFunc kept were overwritten", directed)
		}
	}
}

// TestViewOrderParallelMatchesPermutedReference runs applyOrder's
// transposes on graphs large enough for several workers, directed with
// in-lists and undirected: under a random permutation, ViewWith at 1, 2
// and 4 workers must equal the reference View renamed and each row sorted,
// which permuted spells out serially.
func TestViewOrderParallelMatchesPermutedReference(t *testing.T) {
	undirected := New(Options{Shards: 16})
	rng := rand.New(rand.NewSource(41))
	const n = 5000
	for i := 0; i < n; i++ {
		undirected.AddVertex(VertexID(i))
	}
	for i := 0; i < n; i++ {
		d := rng.Intn(6)
		if i%23 == 0 {
			d += 64
		}
		for k := 0; k < d; k++ {
			if err := undirected.AddEdge(VertexID(i), VertexID(rng.Intn(n)), float64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		g        *Graph
		directed bool
	}{
		{"directed", buildViewTestGraph(t, n, 31, idsSparse), true},
		{"undirected", undirected, false},
	} {
		ref := tc.g.ViewReference()
		perm := make([]int32, ref.Len())
		for i, o := range rng.Perm(ref.Len()) {
			perm[i] = int32(o)
		}
		want := permuted(ref, perm, tc.directed)
		order := func(int, []int32, []int32) []int32 { return perm }
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s workers=%d", tc.name, workers)
			vw := tc.g.ViewWith(ViewOpts{Workers: workers, Order: order})
			viewsEqual(t, label, want, vw)
			rowsSorted(t, label, vw)
		}
	}
}

// TestViewOrderComposition checks the remap contract: under any
// permutation the per-VertexID adjacency (neighbor IDs with weights),
// IndexOf, sys.index, and the reverse arrays all stay mutually consistent
// with the unordered reference, and every row ascends in the new indices.
func TestViewOrderComposition(t *testing.T) {
	g := buildViewTestGraph(t, 500, 21, idsSparse)
	base := g.ViewReference()
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
			i32 := narrow.Index32(i)
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
		rowsSorted(t, name, vw)
		got := adjOf(vw)
		for id, es := range want {
			ges := got[id]
			if len(ges) != len(es) {
				t.Fatalf("%s: vertex %d degree %d != %d", name, id, len(ges), len(es))
			}
			// The reference's rows ascend by ID; put the permuted row in
			// that order too, records to one neighbour keeping their
			// weight order.
			slices.SortStableFunc(ges, func(a, b edge) int { return cmp.Compare(a.to, b.to) })
			for k := range es {
				if ges[k] != es[k] {
					t.Fatalf("%s: vertex %d edge %d = %v != %v", name, id, k, ges[k], es[k])
				}
			}
		}
		for i, v := range vw.Verts {
			if vw.IndexOf(v.ID) != narrow.Index32(i) {
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
			for _, j := range vw.Adj(narrow.Index32(i)) {
				wantIn[j] = append(wantIn[j], narrow.Index32(i))
			}
		}
		for j := 0; j < n; j++ {
			got := vw.InAdj(narrow.Index32(j))
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

// TestViewDegreesAndEdgeTotal checks the View's degree accessors against
// its adjacency and the vertex records: Degree(i) is len(Adj(i)), the
// degrees sum to EdgeTotal, and on a directed graph tracking in-edges the
// record's OutDegree and InDegree match Adj and InAdj.
func TestViewDegreesAndEdgeTotal(t *testing.T) {
	g := New(Options{Directed: true, TrackInEdges: true})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < 1500; i++ {
		if err := g.AddEdge(VertexID(rng.Intn(300)), VertexID(rng.Intn(300)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if !g.Directed() {
		t.Fatal("a directed graph reports undirected")
	}
	vw := g.View()
	var sum int64
	for i := range int32(vw.Len()) {
		d := vw.Degree(i)
		if int(d) != len(vw.Adj(i)) || int(d) != vw.Verts[i].OutDegree() {
			t.Fatalf("vertex %d: Degree %d, Adj %d, OutDegree %d", i, d, len(vw.Adj(i)), vw.Verts[i].OutDegree())
		}
		if in := vw.Verts[i].InDegree(); in != len(vw.InAdj(i)) {
			t.Fatalf("vertex %d: InDegree %d, InAdj %d", i, in, len(vw.InAdj(i)))
		}
		sum += int64(d)
	}
	if sum != vw.EdgeTotal() || sum != 1500 {
		t.Errorf("degrees sum to %d, EdgeTotal %d, want 1500", sum, vw.EdgeTotal())
	}
}
