package property

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"unsafe"

	"github.com/graphbig/graphbig-go/internal/mem"
)

func edgePropGraph(t *testing.T, directed bool) *Graph {
	t.Helper()
	g := New(Options{Directed: directed, TrackInEdges: directed, EdgePropSlots: 2})
	for i := VertexID(0); i < 4; i++ {
		g.AddVertex(i)
	}
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgePropsRoundTrip(t *testing.T) {
	g := edgePropGraph(t, false)
	if err := g.SetEdgeProp(0, 1, 0, 3.5); err != nil {
		t.Fatal(err)
	}
	got, err := g.GetEdgeProp(0, 1, 0)
	if err != nil || got != 3.5 {
		t.Errorf("GetEdgeProp = %v, %v", got, err)
	}
	// Undirected: readable from the mirrored direction too.
	got, err = g.GetEdgeProp(1, 0, 0)
	if err != nil || got != 3.5 {
		t.Errorf("mirror GetEdgeProp = %v, %v", got, err)
	}
	// Unset slot reads zero.
	if got, err := g.GetEdgeProp(0, 1, 1); err != nil || got != 0 {
		t.Errorf("unset slot = %v, %v", got, err)
	}
}

func TestEdgePropsDirected(t *testing.T) {
	g := edgePropGraph(t, true)
	if err := g.SetEdgeProp(0, 1, 1, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.GetEdgeProp(0, 1, 1); got != 9 {
		t.Errorf("directed edge prop = %v", got)
	}
	// No mirror on directed graphs.
	if _, err := g.GetEdgeProp(1, 0, 1); err != ErrEdgeNotFound {
		t.Errorf("reverse direction should not exist: %v", err)
	}
}

func TestEdgePropsErrors(t *testing.T) {
	plain := New(Options{})
	plain.AddVertex(1)
	if err := plain.SetEdgeProp(1, 2, 0, 1); err != ErrNoEdgeProps {
		t.Errorf("want ErrNoEdgeProps, got %v", err)
	}
	if _, err := plain.GetEdgeProp(1, 2, 0); err != ErrNoEdgeProps {
		t.Errorf("want ErrNoEdgeProps, got %v", err)
	}
	g := edgePropGraph(t, false)
	if err := g.SetEdgeProp(0, 3, 0, 1); err != ErrEdgeNotFound {
		t.Errorf("missing edge: %v", err)
	}
	if err := g.SetEdgeProp(99, 1, 0, 1); err != ErrEdgeNotFound {
		t.Errorf("missing src: %v", err)
	}
	if err := g.SetEdgeProp(0, 1, 5, 1); err == nil {
		t.Error("slot out of range should fail")
	}
	if g.EdgePropSlots() != 2 {
		t.Errorf("slots = %d", g.EdgePropSlots())
	}
}

func TestEdgePropsAccounting(t *testing.T) {
	g := edgePropGraph(t, false)
	c := mem.NewCounting()
	g.SetTracker(c)
	if err := g.SetEdgeProp(0, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if c.Stores[mem.ClassFramework] < 2 {
		t.Errorf("expected stores to both mirrored records, got %d", c.Stores[mem.ClassFramework])
	}
	if c.Insts[mem.ClassUser] != 0 {
		t.Error("edge-prop primitive leaked user-class events")
	}
}

func TestMetaBlobs(t *testing.T) {
	g := New(Options{})
	v, _ := g.AddVertex(7)
	if g.Meta(v, "profile") != nil {
		t.Error("missing meta should be nil")
	}
	g.SetMeta(v, "profile", []byte("jane doe, analyst"))
	g.SetMeta(v, "avatar", []byte{1, 2, 3})
	if !bytes.Equal(g.Meta(v, "profile"), []byte("jane doe, analyst")) {
		t.Error("meta roundtrip failed")
	}
	if len(g.MetaKeys(v)) != 2 {
		t.Errorf("keys = %v", g.MetaKeys(v))
	}
	// Replacement.
	g.SetMeta(v, "profile", []byte("x"))
	if string(g.Meta(v, "profile")) != "x" {
		t.Error("meta replacement failed")
	}
	// The blob is copied, not aliased.
	src := []byte("mutable")
	g.SetMeta(v, "m", src)
	src[0] = 'X'
	if string(g.Meta(v, "m")) != "mutable" {
		t.Error("meta aliased caller's slice")
	}
}

func TestMetaAccounting(t *testing.T) {
	c := mem.NewCounting()
	g := New(Options{Tracker: c})
	v, _ := g.AddVertex(1)
	g.SetMeta(v, "k", make([]byte, 100))
	before := c.Loads[mem.ClassFramework]
	g.Meta(v, "k")
	if c.Loads[mem.ClassFramework] != before+1 {
		t.Error("meta read not accounted")
	}
}

func TestCloneCopiesEdgePropsAndMeta(t *testing.T) {
	g := edgePropGraph(t, false)
	if err := g.SetEdgeProp(0, 1, 0, 4.5); err != nil {
		t.Fatal(err)
	}
	v := g.FindVertex(2)
	g.SetMeta(v, "tag", []byte("hot"))

	c := Clone(g)
	if got, err := c.GetEdgeProp(0, 1, 0); err != nil || got != 4.5 {
		t.Errorf("cloned edge prop = %v, %v", got, err)
	}
	if string(c.Meta(c.FindVertex(2), "tag")) != "hot" {
		t.Error("cloned meta missing")
	}
	// Mutating the clone's edge prop must not leak back.
	if err := c.SetEdgeProp(0, 1, 0, 9); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.GetEdgeProp(0, 1, 0); got != 4.5 {
		t.Errorf("clone aliased original edge props: %v", got)
	}
	// Nor the other way round, and the clone's rows are its own through a
	// delete and an append on either side.
	if err := g.SetEdgeProp(1, 2, 1, 6); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.GetEdgeProp(1, 2, 1); got != 0 {
		t.Errorf("original's later write shows in the clone: %v", got)
	}
	g.DeleteEdge(0, 1)
	if err := c.AddEdge(0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetEdgeProp(0, 1, 0); err != nil || got != 9 {
		t.Errorf("clone's edge property after the original lost the edge = %v, %v", got, err)
	}
	if got, err := c.GetEdgeProp(0, 3, 0); err != nil || got != 0 {
		t.Errorf("clone's new edge reads %v, %v, want 0", got, err)
	}
}

// The record is 16 bytes: destination and weight. A property pointer per
// record cost 24 more on every graph, and no benchmark graph has one.
func TestEdgeRecordIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Edge{}); n != 16 {
		t.Fatalf("unsafe.Sizeof(Edge{}) = %d, want 16", n)
	}
}

// The vertex record holds what every vertex has — identity, two list
// headers, the simulated layout — and a pointer and row into the shared
// property columns. Values and metadata are not in it.
func TestVertexRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Vertex{}); n > 104 {
		t.Fatalf("unsafe.Sizeof(Vertex{}) = %d, want at most 104", n)
	}
}

// TestMetaConcurrentWithClone: metadata of two vertices of one shard is
// written while the graph is cloned and read; -race is the judge.
func TestMetaConcurrentWithClone(t *testing.T) {
	g := New(Options{Shards: 1})
	a, _ := g.AddVertex(1)
	b, _ := g.AddVertex(2)
	g.SetMeta(a, "k", []byte("a0"))
	var wg sync.WaitGroup
	for _, v := range []*Vertex{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.SetMeta(v, fmt.Sprintf("k%d", i%4), []byte{byte(i)})
				g.Meta(v, "k0")
				g.MetaKeys(v)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		c := Clone(g)
		if got := c.Meta(c.FindVertex(1), "k"); string(got) != "a0" {
			t.Errorf("clone %d lost a blob set before it began: %q", i, got)
		}
	}
	wg.Wait()
	if _, err := g.DeleteVertex(1); err != nil {
		t.Fatal(err)
	}
	if g.shards[0].meta[a] != nil || len(g.MetaKeys(a)) != 0 {
		t.Error("DeleteVertex left the vertex's metadata behind")
	}
	if len(g.MetaKeys(b)) != 4 {
		t.Errorf("the other vertex holds keys %v, want 4", g.MetaKeys(b))
	}
}

// TestEdgePropsFollowTheirRecords keeps the graph simple (no parallel
// edges, no self loops, whose second record no primitive addresses) and gives every edge a unique weight w, and slots (w, -w) when w
// is odd, nothing when it is even. That ties a row to its record by
// content, so after any mutation — DeleteEdge swapping the last record
// into a middle one, DeleteVertex stripping a neighbour's list, AddEdge on
// lists cut from Bulk's slab — every record of every list must still read
// its own two values, through the public primitive and in the rows.
func TestEdgePropsFollowTheirRecords(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	for _, mode := range bulkModes {
		if mode.opt.Directed && !mode.opt.TrackInEdges {
			continue // DeleteVertex needs in-edges
		}
		opt := mode.opt
		opt.Shards, opt.EdgePropSlots = 4, 2
		const verts = 40
		next := 1.0 // the next edge's weight
		el := new(EdgeList)
		for i := 0; i < verts; i++ {
			el.Intern(VertexID(i))
		}
		has := map[[2]VertexID]bool{}
		for len(has) < 150 {
			x, y := VertexID(rng.IntN(verts)), VertexID(rng.IntN(verts))
			if x != y && !has[[2]VertexID{x, y}] && !has[[2]VertexID{y, x}] {
				has[[2]VertexID{x, y}] = true
				el.Add(int32(x), int32(y), next)
				next++
			}
		}
		g := Bulk(opt, el, 2)
		mark := func(x, y VertexID, w float64) {
			if int(w)%2 == 0 {
				return
			}
			for slot, val := range []float64{w, -w} {
				if err := g.SetEdgeProp(x, y, slot, val); err != nil {
					t.Fatalf("%s: SetEdgeProp(%d,%d): %v", mode.name, x, y, err)
				}
			}
		}
		g.ForEachVertex(func(v *Vertex) {
			for _, e := range v.Out {
				mark(v.ID, e.To, e.Weight)
			}
		})
		check := func(after string) {
			t.Helper()
			g.ForEachVertex(func(v *Vertex) {
				for i, e := range v.Out {
					want := [2]float64{}
					if int(e.Weight)%2 == 1 {
						want = [2]float64{e.Weight, -e.Weight}
					}
					for slot := range want {
						got, err := g.GetEdgeProp(v.ID, e.To, slot)
						if err != nil || got != want[slot] || g.edgeProp(v, i, slot) != want[slot] {
							t.Fatalf("%s after %s: %d->%d (w=%v, Out[%d]) slot %d reads %v / row %v (%v), want %v", mode.name,
								after, v.ID, e.To, e.Weight, i, slot, got, g.edgeProp(v, i, slot), err, want[slot])
						}
					}
				}
			})
		}
		check("Bulk")
		for step := 0; step < 400; step++ {
			x, y := VertexID(rng.IntN(verts)), VertexID(rng.IntN(verts))
			switch rng.IntN(8) {
			case 0:
				if _, err := g.DeleteVertex(x); err != nil {
					t.Fatal(err)
				}
				check("DeleteVertex")
			case 1, 2, 3:
				// The first record of a long list: the last is swapped in.
				if v := g.FindVertex(x); v != nil && len(v.Out) > 2 {
					g.DeleteEdge(x, v.Out[rng.IntN(len(v.Out)-1)].To)
					check("DeleteEdge")
				}
			default:
				g.AddVertex(x)
				g.AddVertex(y)
				if x != y && g.FindEdge(x, y) == nil {
					if err := g.AddEdge(x, y, next); err != nil {
						t.Fatal(err)
					}
					// A record appended to a list that has rows reads zero
					// until it is written.
					if got, err := g.GetEdgeProp(x, y, 0); err != nil || got != 0 {
						t.Fatalf("%s: new edge %d->%d reads %v, %v before any write", mode.name, x, y, got, err)
					}
					mark(x, y, next)
					next++
					check("AddEdge")
				}
			}
		}
		if err := Validate(g); err != nil {
			t.Fatal(err)
		}
	}
}
