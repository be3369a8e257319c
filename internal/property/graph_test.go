package property

import (
	"fmt"
	"sync"
	"testing"

	"github.com/graphbig/graphbig-go/internal/mem"
)

func TestAddFindVertex(t *testing.T) {
	g := New(Options{})
	v, added := g.AddVertex(7)
	if !added || v == nil || v.ID != 7 {
		t.Fatalf("AddVertex(7) = %v, %v", v, added)
	}
	if v2, added := g.AddVertex(7); added || v2 != v {
		t.Errorf("duplicate AddVertex returned added=%v, v=%p want %p", added, v2, v)
	}
	if g.FindVertex(7) != v {
		t.Error("FindVertex(7) did not return the inserted vertex")
	}
	if g.FindVertex(8) != nil {
		t.Error("FindVertex(8) should be nil")
	}
	if g.VertexCount() != 1 {
		t.Errorf("VertexCount = %d, want 1", g.VertexCount())
	}
}

func TestAddEdgeUndirectedMirrors(t *testing.T) {
	g := New(Options{})
	g.AddVertex(1)
	g.AddVertex(2)
	if err := g.AddEdge(1, 2, 3.5); err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1 (logical)", g.EdgeCount())
	}
	a, b := g.FindVertex(1), g.FindVertex(2)
	if len(a.Out) != 1 || a.Out[0].To != 2 || a.Out[0].Weight != 3.5 {
		t.Errorf("forward record wrong: %+v", a.Out)
	}
	if len(b.Out) != 1 || b.Out[0].To != 1 {
		t.Errorf("mirror record wrong: %+v", b.Out)
	}
}

func TestAddEdgeDirectedTracksIn(t *testing.T) {
	g := New(Options{Directed: true, TrackInEdges: true})
	g.AddVertex(1)
	g.AddVertex(2)
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	b := g.FindVertex(2)
	if len(b.Out) != 0 {
		t.Errorf("directed edge must not mirror: %+v", b.Out)
	}
	if len(b.In) != 1 || b.In[0] != 1 {
		t.Errorf("in-list wrong: %+v", b.In)
	}
}

func TestAddEdgeMissingEndpoint(t *testing.T) {
	g := New(Options{})
	g.AddVertex(1)
	if err := g.AddEdge(1, 99, 1); err == nil {
		t.Error("AddEdge to missing vertex should fail")
	}
	if g.EdgeCount() != 0 {
		t.Errorf("failed AddEdge must not count: %d", g.EdgeCount())
	}
}

func TestFindEdge(t *testing.T) {
	g := New(Options{})
	for i := VertexID(1); i <= 3; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(1, 2, 9)
	if e := g.FindEdge(1, 2); e == nil || e.Weight != 9 {
		t.Errorf("FindEdge(1,2) = %+v", e)
	}
	if g.FindEdge(1, 3) != nil {
		t.Error("FindEdge(1,3) should be nil")
	}
	if g.FindEdge(99, 1) != nil {
		t.Error("FindEdge from missing vertex should be nil")
	}
}

func TestDeleteEdge(t *testing.T) {
	g := New(Options{})
	for i := VertexID(0); i < 3; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	if !g.DeleteEdge(0, 1) {
		t.Fatal("DeleteEdge(0,1) = false")
	}
	if g.DeleteEdge(0, 1) {
		t.Error("second DeleteEdge(0,1) should be false")
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if len(g.FindVertex(1).Out) != 0 {
		t.Error("mirror record not removed")
	}
}

func TestDeleteVertexUndirected(t *testing.T) {
	g := New(Options{})
	for i := VertexID(0); i < 4; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	removed, err := g.DeleteVertex(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("removed = %d edges, want 2", removed)
	}
	if g.FindVertex(0) != nil {
		t.Error("vertex 0 still findable")
	}
	if g.VertexCount() != 3 || g.EdgeCount() != 1 {
		t.Errorf("counts = %d/%d, want 3/1", g.VertexCount(), g.EdgeCount())
	}
	// No dangling records.
	g.ForEachVertex(func(v *Vertex) {
		for _, e := range v.Out {
			if e.To == 0 {
				t.Errorf("dangling edge %d->0", v.ID)
			}
		}
	})
}

func TestDeleteVertexDirectedNeedsInEdges(t *testing.T) {
	g := New(Options{Directed: true})
	g.AddVertex(1)
	if _, err := g.DeleteVertex(1); err != ErrNeedInEdges {
		t.Errorf("err = %v, want ErrNeedInEdges", err)
	}

	g2 := New(Options{Directed: true, TrackInEdges: true})
	g2.AddVertex(1)
	g2.AddVertex(2)
	g2.AddVertex(3)
	g2.AddEdge(1, 2, 1)
	g2.AddEdge(2, 3, 1)
	removed, err := g2.DeleteVertex(2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	if len(g2.FindVertex(1).Out) != 0 {
		t.Error("source's out-record to deleted vertex remains")
	}
	if len(g2.FindVertex(3).In) != 0 {
		t.Error("destination's in-record from deleted vertex remains")
	}
}

func TestDeleteMissingVertex(t *testing.T) {
	g := New(Options{})
	if n, err := g.DeleteVertex(42); err != nil || n != 0 {
		t.Errorf("DeleteVertex(missing) = %d, %v", n, err)
	}
}

func TestProperties(t *testing.T) {
	sch := NewSchema("weight", "rank")
	g := New(Options{Schema: sch})
	v, _ := g.AddVertex(1)
	w := sch.MustField("weight")
	g.SetProp(v, w, 2.5)
	if got := g.GetProp(v, w); got != 2.5 {
		t.Errorf("GetProp = %v, want 2.5", got)
	}
	extra := g.EnsureField("extra")
	if extra < 2 {
		t.Errorf("EnsureField slot = %d, want >= 2", extra)
	}
	if again := g.EnsureField("extra"); again != extra {
		t.Errorf("EnsureField not idempotent: %d vs %d", again, extra)
	}
	g.SetProp(v, extra, 7)
	if v.Prop(extra) != 7 {
		t.Error("raw Prop disagrees with SetProp")
	}
}

// A field the schema has no room for is refused before it is registered:
// the schema must not be left naming a slot no vertex has.
func TestEnsureFieldRefusalLeavesSchema(t *testing.T) {
	g := New(Options{Schema: NewSchema("a")})
	sch := g.Schema()
	for i := 1; i < sch.Cap(); i++ {
		g.EnsureField(fmt.Sprintf("f%d", i))
	}
	v, _ := g.AddVertex(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EnsureField past the capacity did not panic")
			}
		}()
		g.EnsureField("one too many")
	}()
	if sch.NumFields() != sch.Cap() || sch.Field("one too many") != -1 || len(sch.Names()) != sch.Cap() {
		t.Errorf("refused field left %d fields (capacity %d), Field = %d", sch.NumFields(), sch.Cap(), sch.Field("one too many"))
	}
	if again := g.EnsureField("f3"); again != 3 {
		t.Errorf("EnsureField of a registered field on a full schema = %d, want 3", again)
	}
	last := sch.Cap() - 1
	g.SetProp(v, last, 5)
	if g.GetProp(v, last) != 5 {
		t.Error("last slot of a full schema does not hold its value")
	}
}

func TestNeighborsEarlyStop(t *testing.T) {
	g := New(Options{})
	for i := VertexID(0); i < 5; i++ {
		g.AddVertex(i)
	}
	for i := VertexID(1); i < 5; i++ {
		g.AddEdge(0, i, 1)
	}
	seen := 0
	g.Neighbors(g.FindVertex(0), func(i int, e *Edge) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Errorf("early-stop visited %d, want 2", seen)
	}
}

func TestViewStableAndIndexed(t *testing.T) {
	g := New(Options{})
	for _, id := range []VertexID{5, 1, 9, 3} {
		g.AddVertex(id)
	}
	vw := g.View()
	if vw.Len() != 4 {
		t.Fatalf("view len = %d", vw.Len())
	}
	want := []VertexID{1, 3, 5, 9}
	for i, v := range vw.Verts {
		if v.ID != want[i] {
			t.Errorf("view[%d] = %d, want %d (ID-sorted)", i, v.ID, want[i])
		}
		if vw.IndexOf(v.ID) != int32(i) {
			t.Errorf("IndexOf(%d) = %d, want %d", v.ID, vw.IndexOf(v.ID), i)
		}
		idx := g.Schema().MustField(SysIndexField)
		if int32(v.Prop(idx)) != int32(i) {
			t.Errorf("sys.index property = %v, want %d", v.Prop(idx), i)
		}
	}
	if vw.IndexOf(1234) != -1 {
		t.Error("IndexOf(missing) should be -1")
	}
}

func TestForEachVertexSkipsDeleted(t *testing.T) {
	g := New(Options{})
	for i := VertexID(0); i < 10; i++ {
		g.AddVertex(i)
	}
	g.DeleteVertex(4)
	n := 0
	g.ForEachVertex(func(v *Vertex) {
		if v.ID == 4 {
			t.Error("deleted vertex visited")
		}
		n++
	})
	if n != 9 {
		t.Errorf("visited %d, want 9", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(Options{Schema: NewSchema("p")})
	for i := VertexID(0); i < 4; i++ {
		g.AddVertex(i)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	p := g.Schema().MustField("p")
	g.SetProp(g.FindVertex(0), p, 11)

	c := Clone(g)
	if c.VertexCount() != 4 || c.EdgeCount() != 2 {
		t.Fatalf("clone counts %d/%d", c.VertexCount(), c.EdgeCount())
	}
	if c.FindVertex(0).Prop(p) != 11 {
		t.Error("property not copied")
	}
	// Mutating the clone must not affect the original.
	c.DeleteVertex(1)
	if g.VertexCount() != 4 || g.EdgeCount() != 2 {
		t.Error("clone mutation leaked into original")
	}
	if len(g.FindVertex(0).Out) != 1 {
		t.Error("original adjacency corrupted by clone deletion")
	}
}

func TestConcurrentConstruction(t *testing.T) {
	g := New(Options{Hint: 1000})
	const n = 1000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				g.AddVertex(VertexID(i))
			}
		}(w)
	}
	wg.Wait()
	if g.VertexCount() != n {
		t.Fatalf("VertexCount = %d, want %d", g.VertexCount(), n)
	}
	// Parallel edges: ring.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				if err := g.AddEdge(VertexID(i), VertexID((i+1)%n), 1); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if g.EdgeCount() != n {
		t.Fatalf("EdgeCount = %d, want %d", g.EdgeCount(), n)
	}
	g.ForEachVertex(func(v *Vertex) {
		if len(v.Out) != 2 { // ring, undirected: prev and next
			t.Errorf("vertex %d degree %d, want 2", v.ID, len(v.Out))
		}
	})
}

func TestFrameworkAccounting(t *testing.T) {
	c := mem.NewCounting()
	g := New(Options{Tracker: c})
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2, 1)
	g.GetProp(g.FindVertex(1), 0)
	if c.Insts[mem.ClassUser] != 0 {
		t.Errorf("pure framework ops recorded %d user insts", c.Insts[mem.ClassUser])
	}
	if c.Insts[mem.ClassFramework] == 0 {
		t.Error("framework ops recorded no instructions")
	}
	if c.Stores[mem.ClassFramework] == 0 {
		t.Error("insertions recorded no stores")
	}
}

func TestNeighborsCallbackIsUserClass(t *testing.T) {
	c := mem.NewCounting()
	g := New(Options{Tracker: c})
	g.AddVertex(1)
	g.AddVertex(2)
	g.AddEdge(1, 2, 1)
	before := c.Insts[mem.ClassUser]
	g.Neighbors(g.FindVertex(1), func(_ int, _ *Edge) bool {
		c.Inst(10) // user work inside the callback
		return true
	})
	if got := c.Insts[mem.ClassUser] - before; got != 10 {
		t.Errorf("callback user insts = %d, want 10", got)
	}
}

func TestEdgeChunkGrowthMovesAddress(t *testing.T) {
	g := New(Options{Tracker: mem.NewCounting()})
	g.AddVertex(0)
	for i := VertexID(1); i <= 20; i++ {
		g.AddVertex(i)
		g.AddEdge(0, i, 1)
	}
	v := g.FindVertex(0)
	if v.edgeCap < 20 {
		t.Errorf("edgeCap = %d, want >= 20", v.edgeCap)
	}
	if len(v.Out) != 20 {
		t.Errorf("out degree = %d, want 20", len(v.Out))
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("a", "b")
	if s.Field("a") != 0 || s.Field("b") != 1 {
		t.Error("field slots wrong")
	}
	if s.Field("c") != -1 {
		t.Error("missing field should be -1")
	}
	if s.NumFields() != 2 {
		t.Errorf("NumFields = %d", s.NumFields())
	}
	if s.Cap() < s.NumFields() {
		t.Error("cap below field count")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustField(missing) should panic")
		}
	}()
	s.MustField("zzz")
}
