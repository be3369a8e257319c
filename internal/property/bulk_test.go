package property

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// incremental is the definition Bulk is held to: New, then every vertex,
// then every edge, from one goroutine.
func incremental(t testing.TB, opt Options, in BulkInput) *Graph {
	t.Helper()
	g := New(opt)
	for i := 0; i < in.NumVertices(); i++ {
		g.AddVertex(in.ID(i))
	}
	for e := 0; e < in.NumEdges(); e++ {
		s, d := in.Ends(e)
		if err := g.AddEdge(in.ID(int(s)), in.ID(int(d)), in.Weight(e)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// diffGraphs compares everything the equality contract names: shard
// order, both lists of every vertex in order, every simulated address and
// capacity, the index tables and the arena's high-water mark. It returns
// the first difference, or "".
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
	for i := range a.shards {
		sa, sb := &a.shards[i], &b.shards[i]
		if sa.idxAddr != sb.idxAddr || sa.idxCap != sb.idxCap || sa.idxCount != sb.idxCount {
			return fmt.Sprintf("shard %d index table %x/%d/%d vs %x/%d/%d", i,
				sa.idxAddr, sa.idxCap, sa.idxCount, sb.idxAddr, sb.idxCap, sb.idxCount)
		}
		if len(sa.verts) != len(sb.verts) || len(sa.index) != len(sb.index) {
			return fmt.Sprintf("shard %d holds %d/%d vs %d/%d", i, len(sa.verts), len(sa.index), len(sb.verts), len(sb.index))
		}
		for k, va := range sa.verts {
			vb := sb.verts[k]
			if va.ID != vb.ID || va.dead != vb.dead {
				return fmt.Sprintf("shard %d slot %d: vertex %d vs %d", i, k, va.ID, vb.ID)
			}
			if !va.dead && (sa.index[va.ID] != va || sb.index[vb.ID] != vb) {
				return fmt.Sprintf("vertex %d: index does not point at the record", va.ID)
			}
			if va.addr != vb.addr || va.edgeAddr != vb.edgeAddr || va.edgeCap != vb.edgeCap ||
				va.inAddr != vb.inAddr || va.inCap != vb.inCap || len(va.props) != len(vb.props) {
				return fmt.Sprintf("vertex %d layout %x %x/%d %x/%d vs %x %x/%d %x/%d", va.ID,
					va.addr, va.edgeAddr, va.edgeCap, va.inAddr, va.inCap,
					vb.addr, vb.edgeAddr, vb.edgeCap, vb.inAddr, vb.inCap)
			}
			if len(va.Out) != len(vb.Out) || len(va.In) != len(vb.In) {
				return fmt.Sprintf("vertex %d degrees %d/%d vs %d/%d", va.ID, len(va.Out), len(va.In), len(vb.Out), len(vb.In))
			}
			for j := range va.Out {
				if va.Out[j].To != vb.Out[j].To || va.Out[j].Weight != vb.Out[j].Weight {
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

// randomEdgeList draws a multigraph over sparse IDs with duplicate edges,
// self loops, a few hubs (so lists regrow many times) and vertices no edge
// mentions.
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
	for e := 0; e < edges; e++ {
		src, dst := pick(), pick()
		switch rng.IntN(10) {
		case 0:
			dst = src
		case 1:
			el.Intern(pick())
		}
		el.Add(el.Intern(src), el.Intern(dst), float64(rng.IntN(100)))
		if rng.IntN(8) == 0 {
			el.Add(el.Intern(src), el.Intern(dst), 7)
		}
	}
	return el
}

func TestBulkEqualsIncremental(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for round := 0; round < 12; round++ {
		verts := 1 + rng.IntN(400)
		el := randomEdgeList(rng, verts, rng.IntN(6*verts))
		for _, mode := range bulkModes {
			opt := mode.opt
			opt.Shards = 1 << rng.IntN(9)
			opt.Hint = rng.IntN(2) * verts
			want := incremental(t, opt, el)
			if err := Validate(want); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got := Bulk(opt, el, workers)
				if d := diffGraphs(got, want); d != "" {
					t.Fatalf("round %d %s workers=%d (%d vertices, %d edges): %s",
						round, mode.name, workers, el.NumVertices(), el.NumEdges(), d)
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
			switch x, y := id(), id(); rng.IntN(8) {
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

// FuzzBulkBuild decodes small adversarial edge lists — few IDs, so
// duplicates, self loops and long lists are the common case — and holds
// Bulk to the incremental build.
func FuzzBulkBuild(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{1, 3, 0x00, 0x11, 0x11, 0x10, 0x01})
	f.Add([]byte{2, 7, 0x12, 0x21, 0x12, 0x33, 0x34, 0x45, 0x56, 0x67, 0x70})
	f.Add([]byte{5, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opt := bulkModes[int(data[0])%len(bulkModes)].opt
		opt.Shards = 1 << (data[0] / 64)
		workers := 1 + int(data[1])%8
		el := new(EdgeList)
		for i, b := range data[2:] {
			// Sparse, shard-colliding IDs from a 16-value space.
			src, dst := VertexID(b>>4)*0x9e3779b97f4a7c15, VertexID(b&15)*0x9e3779b97f4a7c15
			el.Add(el.Intern(src), el.Intern(dst), float64(i))
		}
		if d := diffGraphs(Bulk(opt, el, workers), incremental(t, opt, el)); d != "" {
			t.Fatal(d)
		}
	})
}
