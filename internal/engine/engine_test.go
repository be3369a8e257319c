package engine

import (
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

// chain builds 0-1-2-...-(n-1) as an undirected path.
func chain(n int) *property.Graph {
	g := property.New(property.Options{})
	for i := 0; i < n; i++ {
		g.AddVertex(property.VertexID(i))
	}
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(property.VertexID(i), property.VertexID(i+1), 1); err != nil {
			panic(err)
		}
	}
	return g
}

func newDist(n int) []int32 {
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	return d
}

func TestTraverseChainLevels(t *testing.T) {
	g := chain(10)
	vw := g.View()
	for _, workers := range []int{1, 4} {
		e := New(g, vw, workers)
		dist := newDist(e.N())
		dist[0] = 0
		st := e.Traverse(&Spec{Dist: dist}, 0)
		if st.Reached != 10 {
			t.Errorf("workers=%d: Reached = %d, want 10", workers, st.Reached)
		}
		if st.Depth != 9 {
			t.Errorf("workers=%d: Depth = %d, want 9", workers, st.Depth)
		}
		for i := range dist {
			if dist[i] != int32(i) {
				t.Errorf("workers=%d: dist[%d] = %d, want %d", workers, i, dist[i], i)
			}
		}
	}
}

// On a dense-frontier graph the direction-optimizer must take pull rounds
// yet still produce the same levels as pure push.
func TestTraverseDirectionOptimizedMatchesPush(t *testing.T) {
	g := gen.LDBC(2000, 7, 0)
	vw := g.View()
	e := New(g, vw, 4)

	push := newDist(e.N())
	src := int32(0)
	push[src] = 0
	pst := e.Traverse(&Spec{Dist: push, NoPull: true}, src)

	opt := newDist(e.N())
	opt[src] = 0
	ost := e.Traverse(&Spec{Dist: opt}, src)

	if pst.PullRounds != 0 {
		t.Errorf("NoPull run took %d pull rounds", pst.PullRounds)
	}
	if ost.PullRounds == 0 {
		t.Log("direction optimizer never pulled on LDBC; heuristic may need attention")
	}
	if pst.Reached != ost.Reached || pst.Depth != ost.Depth {
		t.Errorf("stats diverge: push %+v vs dir-opt %+v", pst, ost)
	}
	for i := range push {
		if push[i] != opt[i] {
			t.Fatalf("dist[%d]: push %d vs dir-opt %d", i, push[i], opt[i])
		}
	}
}

// TestTraverseHierFrontierDifferential forces the pull phase — which
// densifies and sparsifies through the hierarchical frontier bitmaps —
// on a dense graph and checks the resulting levels against a pure-push
// oracle at k∈{1,4} workers. A lost summary mark or a broken AppendSet
// would surface as diverging levels or a short reach count.
func TestTraverseHierFrontierDifferential(t *testing.T) {
	g := gen.LDBC(3000, 9, 1)
	vw := g.View()
	oracle := newDist(vw.Len())
	oracle[0] = 0
	ost := New(g, vw, 1).Traverse(&Spec{Dist: oracle, NoPull: true}, 0)
	for _, workers := range []int{1, 4} {
		e := New(g, vw, workers)
		dist := newDist(e.N())
		dist[0] = 0
		st := e.Traverse(&Spec{Dist: dist}, 0)
		if st.PullRounds == 0 {
			t.Fatalf("workers=%d: no pull rounds; the hierarchical frontier was not exercised", workers)
		}
		if st.Reached != ost.Reached || st.Depth != ost.Depth {
			t.Errorf("workers=%d: stats diverge: %+v vs push oracle %+v", workers, st, ost)
		}
		for i := range dist {
			if dist[i] != oracle[i] {
				t.Fatalf("workers=%d: dist[%d] = %d, oracle %d", workers, i, dist[i], oracle[i])
			}
		}
	}
}

func TestTraverseVisitExactlyOnceAndLabels(t *testing.T) {
	g := gen.Twitter(800, 11, 0)
	vw := g.View()
	e := New(g, vw, 4)
	dist := newDist(e.N())
	labels := make([]int32, e.N())
	for i := range labels {
		labels[i] = -1
	}
	dist[3] = 0
	labels[3] = 99
	st := e.Traverse(&Spec{
		Dist:   dist,
		Label:  99,
		Labels: labels,
	}, 3)
	var reached int64 = 0
	for i := range dist {
		if dist[i] >= 0 {
			reached++
			if labels[i] != 99 {
				t.Fatalf("claimed vertex %d has label %d", i, labels[i])
			}
		} else if labels[i] != -1 {
			t.Fatalf("unclaimed vertex %d has label %d", i, labels[i])
		}
	}
	if reached != st.Reached {
		t.Errorf("Stats.Reached = %d but %d slots claimed", st.Reached, reached)
	}
}

// Reusing one Dist array across Traverse calls must never re-claim
// previously labeled vertices (the CComp pattern).
func TestTraverseMultiComponentReuse(t *testing.T) {
	g := property.New(property.Options{})
	// Two disjoint triangles.
	for i := 0; i < 6; i++ {
		g.AddVertex(property.VertexID(i))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		if err := g.AddEdge(property.VertexID(e[0]), property.VertexID(e[1]), 1); err != nil {
			t.Fatal(err)
		}
	}
	vw := g.View()
	e := New(g, vw, 2)
	dist := newDist(e.N())
	labels := newDist(e.N())

	dist[0] = 0
	labels[0] = 0
	st1 := e.Traverse(&Spec{Dist: dist, Label: 0, Labels: labels}, 0)
	if st1.Reached != 3 {
		t.Fatalf("first component Reached = %d, want 3", st1.Reached)
	}
	dist[3] = 0
	labels[3] = 1
	st2 := e.Traverse(&Spec{Dist: dist, Label: 1, Labels: labels}, 3)
	if st2.Reached != 3 {
		t.Fatalf("second component Reached = %d, want 3", st2.Reached)
	}
	want := []int32{0, 0, 0, 1, 1, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("labels[%d] = %d, want %d", i, labels[i], want[i])
		}
	}
}

// TestTraverseIgnoresTracker pins the engine's contract: it runs its
// native kernel whatever is installed on the graph. With a tracker
// installed, a 4-worker Traverse returns the bare graph's Dist, Labels and
// Stats, and the tracker counts no event.
func TestTraverseIgnoresTracker(t *testing.T) {
	g := gen.LDBC(3000, 9, 1)
	vw := g.View()
	run := func() ([]int32, []int32, Stats) {
		dist, labels := newDist(vw.Len()), newDist(vw.Len())
		dist[0], labels[0] = 0, 5
		st := New(g, vw, 4).Traverse(&Spec{Dist: dist, Label: 5, Labels: labels}, 0)
		return dist, labels, st
	}
	wantDist, wantLabels, wantSt := run()
	if wantSt.PullRounds == 0 {
		t.Fatal("no pull rounds; the direction optimizer was not exercised")
	}
	c := mem.NewCounting()
	g.SetTracker(c)
	defer g.SetTracker(nil)
	dist, labels, st := run()
	if st != wantSt {
		t.Errorf("stats %+v, want the bare graph's %+v", st, wantSt)
	}
	if !slices.Equal(dist, wantDist) || !slices.Equal(labels, wantLabels) {
		t.Error("Dist or Labels differ from the bare graph's")
	}
	if c.Loads != [2]uint64{} || c.Stores != [2]uint64{} || c.Insts != [2]uint64{} || c.Branches != [2]uint64{} {
		t.Errorf("Traverse recorded tracker events: %+v", *c)
	}
}

func TestTraverseDistLengthMismatchPanics(t *testing.T) {
	g := chain(4)
	e := New(g, g.View(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Dist length did not panic")
		}
	}()
	e.Traverse(&Spec{Dist: make([]int32, 2)}, 0)
}
