package engine

import (
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

// A tracker pins the engine to the single-threaded TrackedVisit loop and
// never writes the native labels.
func TestTraverseTrackedMode(t *testing.T) {
	g := chain(6)
	vw := g.View() // view before tracker, matching the harness ordering
	g.SetTracker(mem.NewCounting())
	defer g.SetTracker(nil)

	e := New(g, vw, 8)
	if !e.Tracked() || e.Workers() != 1 {
		t.Fatalf("Tracked=%v Workers=%d, want tracked single-worker", e.Tracked(), e.Workers())
	}
	dist := newDist(e.N())
	dist[0] = 0
	labels := newDist(e.N())
	var order []int32
	st := e.Traverse(&Spec{
		Dist:   dist,
		Label:  5,
		Labels: labels,
		TrackedVisit: func(k int, u, round int32, emit func(v int32) int) {
			for _, v := range vw.Adj(u) {
				if dist[v] < 0 {
					dist[v] = round
					// One emit per round on a chain: slot in the next
					// frontier is always 0 (frontiers reset each round).
					if slot := emit(v); slot != 0 {
						t.Errorf("emit slot %d, want 0", slot)
					}
					order = append(order, v)
				}
			}
		},
	}, 0)
	if st.Reached != 6 || st.Depth != 5 {
		t.Errorf("stats %+v, want Reached=6 Depth=5", st)
	}
	if st.PullRounds != 0 {
		t.Errorf("tracked run took pull rounds: %+v", st)
	}
	for v, l := range labels {
		if l != -1 {
			t.Errorf("tracked run wrote native label %d to vertex %d", l, v)
		}
	}
	for i, v := range order {
		if v != int32(i+1) {
			t.Fatalf("discovery order %v not deterministic chain order", order)
		}
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
