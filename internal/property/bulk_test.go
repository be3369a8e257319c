package property

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// incremental is the definition Bulk is held to: New, then every vertex,
// then every edge, from one goroutine. It reads the edges the way a second
// implementation of the reader would, with a caller buffer of one record.
func incremental(t testing.TB, opt Options, in BulkInput) *Graph {
	t.Helper()
	g := New(opt)
	for i := 0; i < in.NumVertices(); i++ {
		g.AddVertex(in.ID(i))
	}
	buf := make([]BulkEdge, 1)
	for e := 0; e < in.NumEdges(); {
		run := in.Edges(e, buf)
		if len(run) == 0 {
			t.Fatalf("Edges(%d) of %d is empty", e, in.NumEdges())
		}
		for _, r := range run {
			if err := g.AddEdge(in.ID(int(r.Src)), in.ID(int(r.Dst)), r.W); err != nil {
				t.Fatal(err)
			}
		}
		e += len(run)
	}
	return g
}

// copied is its input read the way gen's packed list is: every run is the
// caller's buffer, filled, so Bulk's own blocks cut the sequence wherever
// they fall. With one set, the buffer is used one record at a time.
type copied struct {
	*EdgeList
	one bool
}

func (c copied) Edges(e int, buf []BulkEdge) []BulkEdge {
	if c.one {
		buf = buf[:1]
	}
	buf = buf[:min(len(buf), c.NumEdges()-e)]
	for k := range buf {
		buf[k] = c.EdgeList.Edges(e+k, nil)[0]
	}
	return buf
}

// indexed counts the entries of g's Go-side index, table and maps.
func indexed(g *Graph) int {
	n := 0
	for _, v := range g.flat {
		if v != nil {
			n++
		}
	}
	for i := range g.shards {
		n += len(g.shards[i].index)
	}
	return n
}

// diffGraphs compares everything the equality contract names: shard
// order, both lists of every vertex in order, every simulated address and
// capacity, the index tables and the arena's high-water mark — and what
// the Go-side storage must agree on however it is laid out: a lookup of
// every live ID finds its record, the index holds nothing else, and every
// property slot reads the same. It returns the first difference, or "".
func diffGraphs(a, b *Graph) string {
	if a.VertexCount() != b.VertexCount() || a.EdgeCount() != b.EdgeCount() {
		return fmt.Sprintf("counts %d/%d vs %d/%d", a.VertexCount(), a.EdgeCount(), b.VertexCount(), b.EdgeCount())
	}
	if len(a.shards) != len(b.shards) {
		return fmt.Sprintf("%d vs %d shards", len(a.shards), len(b.shards))
	}
	if a.arena.Used() != b.arena.Used() {
		return fmt.Sprintf("arena.Used %d vs %d", a.arena.Used(), b.arena.Used())
	}
	if a.sch.Cap() != b.sch.Cap() {
		return fmt.Sprintf("schema capacity %d vs %d", a.sch.Cap(), b.sch.Cap())
	}
	if na, nb := indexed(a), indexed(b); na != a.VertexCount() || nb != b.VertexCount() {
		return fmt.Sprintf("index holds %d and %d entries for %d vertices", na, nb, a.VertexCount())
	}
	for i := range a.shards {
		sa, sb := &a.shards[i], &b.shards[i]
		if sa.idxAddr != sb.idxAddr || sa.idxCap != sb.idxCap || sa.idxCount != sb.idxCount {
			return fmt.Sprintf("shard %d index table %x/%d/%d vs %x/%d/%d", i,
				sa.idxAddr, sa.idxCap, sa.idxCount, sb.idxAddr, sb.idxCap, sb.idxCount)
		}
		if len(sa.verts) != len(sb.verts) {
			return fmt.Sprintf("shard %d holds %d vs %d", i, len(sa.verts), len(sb.verts))
		}
		for k, va := range sa.verts {
			vb := sb.verts[k]
			if va.ID != vb.ID || va.dead != vb.dead {
				return fmt.Sprintf("shard %d slot %d: vertex %d vs %d", i, k, va.ID, vb.ID)
			}
			if !va.dead && (a.FindVertex(va.ID) != va || b.FindVertex(vb.ID) != vb) {
				return fmt.Sprintf("vertex %d: index does not point at the record", va.ID)
			}
			for slot := 0; slot < a.sch.Cap(); slot++ {
				if pa, pb := va.Prop(slot), vb.Prop(slot); pa != pb {
					return fmt.Sprintf("vertex %d property %d: %v vs %v", va.ID, slot, pa, pb)
				}
			}
			if va.addr != vb.addr || va.edgeAddr != vb.edgeAddr || va.edgeCap != vb.edgeCap ||
				va.inAddr != vb.inAddr || va.inCap != vb.inCap {
				return fmt.Sprintf("vertex %d layout %x %x/%d %x/%d vs %x %x/%d %x/%d", va.ID,
					va.addr, va.edgeAddr, va.edgeCap, va.inAddr, va.inCap,
					vb.addr, vb.edgeAddr, vb.edgeCap, vb.inAddr, vb.inCap)
			}
			if len(va.Out) != len(vb.Out) || len(va.In) != len(vb.In) {
				return fmt.Sprintf("vertex %d degrees %d/%d vs %d/%d", va.ID, len(va.Out), len(va.In), len(vb.Out), len(vb.In))
			}
			for j := range va.Out {
				if va.Out[j] != vb.Out[j] {
					return fmt.Sprintf("vertex %d Out[%d] %v vs %v", va.ID, j, va.Out[j], vb.Out[j])
				}
			}
			for j := range va.In {
				if va.In[j] != vb.In[j] {
					return fmt.Sprintf("vertex %d In[%d] %d vs %d", va.ID, j, va.In[j], vb.In[j])
				}
			}
		}
	}
	return ""
}

var bulkModes = []struct {
	name string
	opt  Options
}{
	{"directed+in", Options{Directed: true, TrackInEdges: true}},
	{"directed", Options{Directed: true}},
	{"undirected", Options{}},
}

// randomEdgeList draws a multigraph of exactly edges edges over sparse IDs
// with duplicate edges, self loops, a few hubs (so lists regrow many times)
// and vertices no edge mentions.
func randomEdgeList(rng *rand.Rand, verts, edges int) *EdgeList {
	ids := make([]VertexID, verts)
	for i := range ids {
		ids[i] = VertexID(rng.Uint64() >> uint(rng.IntN(60)))
	}
	el := new(EdgeList)
	pick := func() VertexID {
		if rng.IntN(4) == 0 {
			return ids[rng.IntN(1+verts/16)]
		}
		return ids[rng.IntN(verts)]
	}
	for el.NumEdges() < edges {
		src, dst := pick(), pick()
		switch rng.IntN(10) {
		case 0:
			dst = src
		case 1:
			el.Intern(pick())
		}
		el.Add(el.Intern(src), el.Intern(dst), float64(rng.IntN(100)))
		if rng.IntN(8) == 0 && el.NumEdges() < edges {
			el.Add(el.Intern(src), el.Intern(dst), 7)
		}
	}
	return el
}

func TestBulkEqualsIncremental(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	// Twelve random sizes, then the three edge counts around an EdgeList
	// chunk: the run Edges returns ends one short of, on, and one past it.
	sizes := [][2]int{{400, edgeListChunk - 1}, {400, edgeListChunk}, {400, edgeListChunk + 1}}
	for round := 0; round < 12; round++ {
		verts := 1 + rng.IntN(400)
		sizes = append(sizes, [2]int{verts, rng.IntN(6 * verts)})
	}
	for round, size := range sizes {
		verts := size[0]
		el := randomEdgeList(rng, verts, size[1])
		for _, mode := range bulkModes {
			opt := mode.opt
			opt.Shards = 1 << rng.IntN(9)
			opt.Hint = rng.IntN(2) * verts
			want := incremental(t, opt, el)
			if err := Validate(want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for name, in := range map[string]BulkInput{"own chunks": el, "filled buffer": copied{el, false}, "one record": copied{el, true}} {
					if d := diffGraphs(Bulk(opt, in, workers), want); d != "" {
						t.Fatalf("round %d %s workers=%d %s (%d vertices, %d edges): %s",
							round, mode.name, workers, name, el.NumVertices(), el.NumEdges(), d)
					}
				}
			}
		}
	}
}

func TestBulkEmptyAndEdgeless(t *testing.T) {
	var el EdgeList
	if g := Bulk(Options{}, &el, 4); g.VertexCount() != 0 || g.EdgeCount() != 0 {
		t.Fatalf("empty input built %d/%d", g.VertexCount(), g.EdgeCount())
	}
	el.Intern(7)
	el.Intern(9)
	if d := diffGraphs(Bulk(Options{}, &el, 4), incremental(t, Options{}, &el)); d != "" {
		t.Fatal(d)
	}
}

type dupIDs struct{ *EdgeList }

func (dupIDs) NumVertices() int  { return 2 }
func (dupIDs) ID(i int) VertexID { return 5 }

func TestBulkRejectsDuplicateIDs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bulk accepted two vertices with one ID")
		}
	}()
	Bulk(Options{}, dupIDs{new(EdgeList)}, 1)
}

// TestBulkThenMutate: a bulk-built graph's lists sit back to back in one
// slab, so every mutation is mirrored on an incrementally built twin and
// the whole graphs compared — an append that ran into the next vertex's
// list, or a delete that shifted it, shows up as a difference there.
func TestBulkThenMutate(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	for _, mode := range bulkModes {
		if mode.opt.Directed && !mode.opt.TrackInEdges {
			continue // DeleteVertex needs in-edges
		}
		el := randomEdgeList(rng, 60, 400)
		opt := mode.opt
		opt.Shards = 4
		a, b := Bulk(opt, el, 4), incremental(t, opt, el)
		id := func() VertexID { return el.ID(rng.IntN(el.NumVertices())) }
		for step := 0; step < 600; step++ {
			var op string
			switch x, y := id(), id(); rng.IntN(10) {
			case 0:
				op = fmt.Sprintf("DeleteVertex(%d)", x)
				na, _ := a.DeleteVertex(x)
				nb, _ := b.DeleteVertex(x)
				if na != nb {
					t.Fatalf("%s: %s removed %d vs %d", mode.name, op, na, nb)
				}
			case 1, 2:
				op = fmt.Sprintf("DeleteEdge(%d,%d)", x, y)
				if a.DeleteEdge(x, y) != b.DeleteEdge(x, y) {
					t.Fatalf("%s: %s disagrees", mode.name, op)
				}
			case 3:
				op = fmt.Sprintf("AddVertex(%d)", x+1)
				a.AddVertex(x + 1)
				b.AddVertex(x + 1)
			default:
				op = fmt.Sprintf("AddEdge(%d,%d)", x, y)
				if (a.AddEdge(x, y, 3) == nil) != (b.AddEdge(x, y, 3) == nil) {
					t.Fatalf("%s: %s disagrees", mode.name, op)
				}
			}
			if d := diffGraphs(a, b); d != "" {
				t.Fatalf("%s: after step %d %s: %s", mode.name, step, op, d)
			}
		}
		if err := Validate(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEdgeListInternMatchesAMap: whatever mix of IDs arrives — dense and in
// order, dense and out of order, huge, one either side of the size the flat
// table may then have — Intern numbers them in first-mention order exactly
// as a plain map would, and Lookup agrees before the ID is interned, after,
// and after every later growth of the table.
func TestEdgeListInternMatchesAMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 2))
	grew := false
	for round := 0; round < 30; round++ {
		var el EdgeList
		want := map[VertexID]int32{}
		calls := 1 + rng.IntN(30000)
		dense := VertexID(1 + rng.IntN(2*calls))
		mix := 1 + rng.IntN(4)
		for i := 0; i < calls; i++ {
			var id VertexID
			switch rng.IntN(mix) {
			case 0:
				id = VertexID(len(want))
			case 1:
				id = VertexID(rng.Uint64()) % dense
			case 2:
				id = VertexID(denseIDLimit(len(want)+1)) + VertexID(rng.IntN(3)) - 1
			case 3:
				id = VertexID(rng.Uint64() >> rng.IntN(40))
			}
			w, known := want[id]
			if got, ok := el.Lookup(id); ok != known || (ok && got != w) {
				t.Fatalf("round %d: Lookup(%d) = %d, %v; a map holds %d, %v", round, id, got, ok, w, known)
			}
			if !known {
				w = int32(len(want))
				want[id] = w
			}
			if got := el.Intern(id); got != w {
				t.Fatalf("round %d: Intern(%d) = %d, want %d", round, id, got, w)
			}
		}
		if el.NumVertices() != len(want) {
			t.Fatalf("round %d: %d vertices, want %d", round, el.NumVertices(), len(want))
		}
		for id, w := range want {
			if got, ok := el.Lookup(id); !ok || got != w || el.ID(int(w)) != id {
				t.Fatalf("round %d: after the last growth Lookup(%d) = %d, %v, want %d", round, id, got, ok, w)
			}
		}
		if n := uint64(len(el.index.flat)); n > denseIDLimit(len(want)) {
			t.Fatalf("round %d: flat table of %d entries for %d vertices", round, n, len(want))
		}
		grew = grew || (len(el.index.flat) > 4096 && len(el.index.sparse) > 0)
	}
	if !grew {
		t.Fatal("no round grew the flat table past its first sizes beside a populated map")
	}
}

// A two-line file naming the largest ID must cost what it cost when the
// index was a map: huge IDs live in the map, and the table stays small.
func TestEdgeListHugeIDsAllocateLittle(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var el EdgeList
	for i, id := range []VertexID{0, 1, 1 << 40, math.MaxUint64} {
		if got := el.Intern(id); got != int32(i) {
			t.Fatalf("Intern(%d) = %d, want %d", id, got, i)
		}
	}
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 1<<20 {
		t.Fatalf("interning four IDs allocated %d bytes", b)
	}
}

// FuzzBulkBuild decodes small adversarial edge lists — few IDs, so
// duplicates, self loops and long lists are the common case — and holds
// Bulk to the incremental build: as built, and after both have had the
// same vertices added (holes inside a flat table, IDs past its end, IDs
// already there) and the same properties written. The second byte's top
// bit picks the IDs: sixteen sparse, shard-colliding ones, or 0..15, which
// Bulk indexes by table.
func FuzzBulkBuild(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 3, 0x00, 0x11, 0x11, 0x10, 0x01})
	f.Add([]byte{2, 7, 0x12, 0x21, 0x12, 0x33, 0x34, 0x45, 0x56, 0x67, 0x70})
	f.Add([]byte{5, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x0f})
	f.Add([]byte{2, 0x83, 0x12, 0x21, 0x05, 0xf0, 0x9e})
	f.Add([]byte{0x44, 0x80, 0xee})
	f.Add([]byte("00\x00")) // the one sparse ID is 0: dense after all
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opt := bulkModes[int(data[0])%len(bulkModes)].opt
		opt.Shards = 1 << (data[0] / 64)
		workers := 1 + int(data[1])%8
		stride := VertexID(0x9e3779b97f4a7c15)
		if data[1]&0x80 != 0 {
			stride = 1
		}
		el := new(EdgeList)
		var maxID VertexID
		for i, b := range data[2:] {
			src, dst := VertexID(b>>4)*stride, VertexID(b&15)*stride
			maxID = max(maxID, src, dst)
			el.Add(el.Intern(src), el.Intern(dst), float64(i))
		}
		mutate := func(g *Graph) *Graph {
			for id := VertexID(0); id < 18; id++ {
				g.AddVertex(id * stride)
			}
			for i, b := range data[2:] {
				g.SetProp(g.FindVertex(VertexID(b>>4)*stride), int(b&15), float64(i+1))
			}
			return g
		}
		want := incremental(t, opt, el)
		for _, in := range []BulkInput{el, copied{el, false}, copied{el, true}} {
			got := Bulk(opt, in, workers)
			if (got.flat != nil) != denseIDs(el.NumVertices(), maxID) {
				t.Fatalf("flat table of %d entries over %d IDs up to %d", len(got.flat), el.NumVertices(), maxID)
			}
			if d := diffGraphs(got, want); d != "" {
				t.Fatal(d)
			}
			if d := diffGraphs(mutate(got), mutate(incremental(t, opt, el))); d != "" {
				t.Fatalf("after AddVertex and SetProp: %s", d)
			}
		}
	})
}
