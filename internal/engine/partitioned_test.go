package engine

import (
	"math"
	"sync/atomic"
	"testing"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/partition"
	"github.com/graphbig/graphbig-go/internal/property"
)

// partView builds a k-way partitioned view of g under the cluster order.
func partView(g *property.Graph, k int) *property.View {
	return g.ViewWith(property.ViewOpts{
		Order:      order.Cluster,
		Partitions: k,
		Workers:    4,
	})
}

func TestPartitionedChainLevels(t *testing.T) {
	// A 10-vertex path cut into 3 partitions forces the wave through two
	// boundary exchanges per direction; levels must still be exact.
	g := chain(10)
	vw := partView(g, 3)
	for _, workers := range []int{1, 4} {
		e := New(g, vw, workers)
		dist := newDist(e.N())
		src := vw.IndexOf(property.VertexID(0))
		dist[src] = 0
		st := e.Traverse(&Spec{Dist: dist}, src)
		if st.Reached != 10 {
			t.Errorf("workers=%d: Reached = %d, want 10", workers, st.Reached)
		}
		if st.Depth != 9 {
			t.Errorf("workers=%d: Depth = %d, want 9", workers, st.Depth)
		}
		if st.Supersteps < 2 {
			t.Errorf("workers=%d: Supersteps = %d, want >= 2 on a cut path", workers, st.Supersteps)
		}
		if st.BoundarySent == 0 {
			t.Errorf("workers=%d: BoundarySent = 0, want boundary traffic on a cut path", workers)
		}
		if st.PullRounds != 0 {
			t.Errorf("workers=%d: %d pull rounds, want a push-only run", workers, st.PullRounds)
		}
		for id := 0; id < 10; id++ {
			i := vw.IndexOf(property.VertexID(id))
			if dist[i] != int32(id) {
				t.Errorf("workers=%d: dist[id %d] = %d, want %d", workers, id, dist[i], id)
			}
		}
	}
}

// testGraph is one input of the partitioned differential tests.
type testGraph struct {
	name string
	g    *property.Graph
}

// testGraphs are LDBC graphs of three sizes, low-diameter with a dense
// core, and road grids, whose BFS runs hundreds of narrow rounds (the
// high-diameter regime).
func testGraphs(seed int64) []testGraph {
	return []testGraph{
		{"ldbc-50", gen.LDBC(50, seed, 0)},
		{"ldbc-500", gen.LDBC(500, seed, 0)},
		{"ldbc-2000", gen.LDBC(2000, seed, 0)},
		{"road-3000", gen.Road(3000, seed, 0)},
		{"road-20000", gen.Road(20000, seed, 0)},
	}
}

// giantSource returns the lowest index of vw's largest component. Road
// grids have many small components; a source in the giant one makes the
// traversal cross every partition.
func giantSource(vw *property.View) int32 {
	seen := make([]bool, vw.Len())
	best, bestSize := int32(0), 0
	for s := range int32(vw.Len()) {
		if seen[s] {
			continue
		}
		seen[s] = true
		q := []int32{s}
		for i := 0; i < len(q); i++ {
			for _, v := range vw.Adj(q[i]) {
				if !seen[v] {
					seen[v] = true
					q = append(q, v)
				}
			}
		}
		if len(q) > bestSize {
			best, bestSize = s, len(q)
		}
	}
	return best
}

// TestPartitionedMatchesFlat differential-tests the partitioned engine
// against the flat engine per vertex on generated graphs across partition
// counts, including k values that do not divide the vertex count. The
// partition-local kernel is push-only, so no partitioned run may report a
// pull round.
func TestPartitionedMatchesFlat(t *testing.T) {
	for _, tc := range testGraphs(7) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			flatView := g.ViewWith(property.ViewOpts{Order: order.Cluster, Workers: 4})
			eFlat := New(g, flatView, 4)
			want := newDist(eFlat.N())
			src := giantSource(flatView)
			want[src] = 0
			wst := eFlat.Traverse(&Spec{Dist: want}, src)

			for _, k := range []int{1, 2, 3, 5, 8} {
				vw := partView(g, k)
				e := New(g, vw, 4)
				got := newDist(e.N())
				got[src] = 0
				gst := e.Traverse(&Spec{Dist: got}, src)
				// Cluster ordering is deterministic, so flatView and vw share
				// the same index space and dist arrays compare directly.
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d: dist[%d] = %d, flat %d", tc.name, k, i, got[i], want[i])
					}
				}
				if gst.Reached != wst.Reached || gst.Depth != wst.Depth {
					t.Errorf("%s k=%d: stats %+v, flat %+v", tc.name, k, gst, wst)
				}
				if gst.PullRounds != 0 {
					t.Errorf("%s k=%d: %d pull rounds, want a push-only run", tc.name, k, gst.PullRounds)
				}
				if k == 1 && gst.BoundarySent != 0 {
					t.Errorf("%s k=1: BoundarySent = %d, want 0", tc.name, gst.BoundarySent)
				}
				// Between traversals every exchange box must be drained and
				// every combine slot empty — the debug assertion backing the
				// phase contract.
				if err := e.ValidateExchange(true); err != nil {
					t.Errorf("%s k=%d: %v", tc.name, k, err)
				}
			}
		})
	}
}

// TestPartitionedLabels checks component labeling (the CComp pattern:
// repeated traversals over one Dist array) under partitioned execution.
func TestPartitionedLabels(t *testing.T) {
	// Two disjoint chains.
	g := property.New(property.Options{})
	for i := 0; i < 12; i++ {
		g.AddVertex(property.VertexID(i))
	}
	for i := 0; i < 5; i++ {
		if err := g.AddEdge(property.VertexID(i), property.VertexID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 6; i < 11; i++ {
		if err := g.AddEdge(property.VertexID(i), property.VertexID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	vw := partView(g, 4)
	e := New(g, vw, 4)
	dist := newDist(e.N())
	labels := make([]int32, e.N())
	for i := range labels {
		labels[i] = -1
	}
	comps := 0
	for s := 0; s < e.N(); s++ {
		if dist[s] >= 0 {
			continue
		}
		dist[s] = 0
		labels[s] = int32(s)
		e.Traverse(&Spec{Dist: dist, Label: int32(s), Labels: labels}, int32(s))
		comps++
	}
	if comps != 2 {
		t.Fatalf("found %d components, want 2", comps)
	}
	for i := range labels {
		if labels[i] < 0 {
			t.Errorf("vertex %d unlabeled", i)
		}
	}
	// All vertices of one original chain share a label.
	same := func(ids []int) {
		t.Helper()
		first := labels[vw.IndexOf(property.VertexID(ids[0]))]
		for _, id := range ids[1:] {
			if l := labels[vw.IndexOf(property.VertexID(id))]; l != first {
				t.Errorf("vertex %d label %d, want %d", id, l, first)
			}
		}
	}
	same([]int{0, 1, 2, 3, 4, 5})
	same([]int{6, 7, 8, 9, 10, 11})
}

// TestPartitionedSSSPMatchesBellmanFord differential-tests the
// partitioned delta-stepping kernel against an exhaustive Bellman-Ford
// sweep, bit-for-bit (both compute min over the same left-to-right float
// path sums).
func TestPartitionedSSSPMatchesBellmanFord(t *testing.T) {
	for _, tc := range testGraphs(11) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			for _, k := range []int{1, 2, 3, 5, 8} {
				vw := partView(g, k)
				e := New(g, vw, 4)
				inf := math.Inf(1)
				dist := make([]float64, e.N())
				for i := range dist {
					dist[i] = inf
				}
				src := giantSource(vw)
				dist[src] = 0
				st := e.PartitionedSSSP(dist, 10, src)

				want := make([]float64, e.N())
				for i := range want {
					want[i] = inf
				}
				want[src] = 0
				for changed := true; changed; {
					changed = false
					for u := int32(0); int(u) < e.N(); u++ {
						du := want[u]
						if math.IsInf(du, 1) {
							continue
						}
						adj := vw.Adj(u)
						wts := vw.AdjW(u)
						for j, v := range adj {
							if nd := du + wts[j]; nd < want[v] {
								want[v] = nd
								changed = true
							}
						}
					}
				}
				for i := range want {
					if dist[i] != want[i] {
						t.Fatalf("%s k=%d: dist[%d] = %v, want %v", tc.name, k, i, dist[i], want[i])
					}
				}
				if k == 1 && st.BoundarySent != 0 {
					t.Errorf("%s k=1: BoundarySent = %d, want 0", tc.name, st.BoundarySent)
				}
				if st.Relaxed == 0 {
					t.Errorf("%s k=%d: no relaxations recorded", tc.name, k)
				}
			}
		})
	}
}

// TestPartitionedFallbacks pins the dispatch rule: a tracked run, or a
// spec carrying a TrackedVisit, runs the flat loop on a partitioned view
// (the label-correcting supersteps would break the single-threaded event
// stream), and a view without a plan never reports partitioned stats.
func TestPartitionedFallbacks(t *testing.T) {
	g := chain(20)
	vw := partView(g, 4)
	src := vw.IndexOf(property.VertexID(0))
	ref := newDist(vw.Len())
	ref[src] = 0
	if st := New(g, vw, 2).Traverse(&Spec{Dist: ref}, src); st.Supersteps == 0 {
		t.Fatalf("untracked run on a 4-way view did not run partitioned: %+v", st)
	}
	run := func(name string, e *Engine) {
		t.Helper()
		dist := newDist(e.N())
		dist[src] = 0
		st := e.Traverse(&Spec{
			Dist: dist,
			TrackedVisit: func(k int, u, round int32, emit func(v int32) int) {
				for _, v := range vw.Adj(u) {
					if dist[v] < 0 {
						dist[v] = round
						emit(v)
					}
				}
			},
		}, src)
		if st.Supersteps != 0 || st.BoundarySent != 0 {
			t.Errorf("%s ran partitioned: %+v", name, st)
		}
		if st.Reached != 20 || st.Depth != 19 {
			t.Errorf("%s: stats %+v, want Reached=20 Depth=19", name, st)
		}
		for i := range ref {
			if dist[i] != ref[i] {
				t.Fatalf("%s: dist[%d] = %d, partitioned run %d", name, i, dist[i], ref[i])
			}
		}
	}
	// Without a tracker the flat native loop claims the slots itself.
	run("TrackedVisit spec", New(g, vw, 2))
	g.SetTracker(mem.NewCounting())
	run("tracked run", New(g, vw, 2))
	g.SetTracker(nil)

	flat := g.View()
	ef := New(g, flat, 2)
	d2 := newDist(ef.N())
	d2[0] = 0
	if st := ef.Traverse(&Spec{Dist: d2}, 0); st.Supersteps != 0 {
		t.Errorf("plan-less view ran partitioned: %+v", st)
	}
}

// fanIn is a directed two-partition graph whose only cut edges fan in:
// a path r -> s1 -> ... -> s8 fills partition 0, every si has a cut edge
// into t1 and every even si one into t2, and partition 1 holds t1, t2 and
// isolated fillers (vertex-balanced, so the split falls right after s8).
// The cut-edge weights are distinct; si's is fanInWeights[i-1].
var fanInWeights = []float64{9, 7, 12, 4.5, 8, 11, 10, 13}

func fanIn(t *testing.T) (g *property.Graph, vw *property.View, r, t1, t2 int32) {
	t.Helper()
	m := len(fanInWeights)
	g = property.New(property.Options{Directed: true, TrackInEdges: true})
	for id := 0; id < 2*(m+1); id++ {
		g.AddVertex(property.VertexID(id))
	}
	add := func(a, b int, w float64) {
		if err := g.AddEdge(property.VertexID(a), property.VertexID(b), w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= m; i++ {
		add(i-1, i, 1)
		add(i, m+1, fanInWeights[i-1])
		if i%2 == 0 {
			add(i, m+2, fanInWeights[i-1]+1)
		}
	}
	vw = g.ViewWith(property.ViewOpts{Partitions: 2, PartitionMode: partition.VertexBalanced, Workers: 2})
	plan := vw.Partitions()
	r, t1, t2 = vw.IndexOf(0), vw.IndexOf(property.VertexID(m+1)), vw.IndexOf(property.VertexID(m+2))
	if plan.K != 2 || plan.Of(r) != 0 || plan.Of(vw.IndexOf(property.VertexID(m))) != 0 || plan.Of(t1) != 1 {
		t.Fatalf("fan-in plan bounds %v do not split after s%d", plan.Bounds, m)
	}
	if plan.CutEdges != int64(m+m/2) {
		t.Fatalf("fan-in plan has %d cut edges, want %d", plan.CutEdges, m+m/2)
	}
	return g, vw, r, t1, t2
}

// TestBoundaryMessagesCombined pins the per-destination combiner on the
// fan-in graph. Its one exchange with traffic has twelve cut edges behind
// it but only two (sender partition, target) pairs, so exactly two
// messages are posted, and each must carry the minimum over its edges.
func TestBoundaryMessagesCombined(t *testing.T) {
	g, vw, r, t1, t2 := fanIn(t)
	const pairs = 2
	for _, workers := range []int{1, 2} {
		e := New(g, vw, workers)
		hops := newDist(e.N())
		hops[r] = 0
		st := e.Traverse(&Spec{Dist: hops}, r)
		if st.BoundarySent != pairs || st.Supersteps != 2 {
			t.Errorf("workers=%d Traverse: BoundarySent, Supersteps = %d, %d; want %d, 2", workers, st.BoundarySent, st.Supersteps, pairs)
		}
		// s1 -> t1 and s2 -> t2 are the shortest ways across.
		if hops[t1] != 2 || hops[t2] != 3 {
			t.Errorf("workers=%d Traverse: t1, t2 at %d, %d hops; want 2, 3", workers, hops[t1], hops[t2])
		}

		inf := math.Inf(1)
		dist := make([]float64, e.N())
		for i := range dist {
			dist[i] = inf
		}
		dist[r] = 0
		sst := e.PartitionedSSSP(dist, 1, r)
		if sst.BoundarySent != pairs || sst.Supersteps != 2 {
			t.Errorf("workers=%d PartitionedSSSP: BoundarySent, Supersteps = %d, %d; want %d, 2", workers, sst.BoundarySent, sst.Supersteps, pairs)
		}
		want1, want2 := inf, inf
		for i, w := range fanInWeights {
			want1 = min(want1, float64(i+1)+w)
			if (i+1)%2 == 0 {
				want2 = min(want2, float64(i+1)+w+1)
			}
		}
		if dist[t1] != want1 || dist[t2] != want2 {
			t.Errorf("workers=%d PartitionedSSSP: t1, t2 at %v, %v; want the minima %v, %v", workers, dist[t1], dist[t2], want1, want2)
		}
		if err := e.ValidateExchange(true); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestValidateExchangeCombineSlots: between calls every combine slot is
// back at its sentinel and every touched list is empty, and
// ValidateExchange(true) fails on either kind of leftover. A stale slot
// would swallow a later message that does not beat it.
func TestValidateExchangeCombineSlots(t *testing.T) {
	g, vw, r, t1, _ := fanIn(t)
	e := New(g, vw, 2)
	hops := newDist(e.N())
	hops[r] = 0
	e.Traverse(&Spec{Dist: hops}, r)
	dist := make([]float64, e.N())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[r] = 0
	e.PartitionedSSSP(dist, 1, r)
	if err := e.ValidateExchange(true); err != nil {
		t.Fatalf("after a clean run: %v", err)
	}

	hc, sc := &e.prt.hops.comb[0], &e.prt.sssp.comb[0]
	hs, ss := &hc.pages[t1>>pageBits][t1&pageMask], &sc.pages[t1>>pageBits][t1&pageMask]
	for _, c := range []struct {
		name          string
		corrupt, heal func()
	}{
		{"stale BFS slot", func() { *hs = 2 }, func() { *hs = math.MaxInt32 }},
		{"stale SSSP slot", func() { *ss = 8.5 }, func() { *ss = math.Inf(1) }},
		{"touched BFS target", func() { hc.touched = append(hc.touched, t1) }, func() { hc.touched = hc.touched[:0] }},
		{"touched SSSP target", func() { sc.touched = append(sc.touched, t1) }, func() { sc.touched = sc.touched[:0] }},
	} {
		c.corrupt()
		if err := e.ValidateExchange(true); err == nil {
			t.Errorf("%s: ValidateExchange(true) passed", c.name)
		}
		if err := e.ValidateExchange(false); err != nil {
			t.Errorf("%s: ValidateExchange(false) = %v, want only the structural checks", c.name, err)
		}
		c.heal()
	}
	if err := e.ValidateExchange(true); err != nil {
		t.Fatalf("after healing: %v", err)
	}
}

// relay is a toy partitioned protocol for the superstep loop's own tests:
// one token starts in partition 0 and is passed one partition up per
// exchange until it reaches partition k-1, which keeps it. Each phase
// touches only its own partition's slot, as the loop's barriers allow.
type relay struct {
	ps   *partState
	mail *concurrent.Mailboxes[int32]
	has  []bool
	got  []bool
}

func newRelay(ps *partState) *relay {
	k := ps.plan.K
	r := &relay{
		ps:   ps,
		mail: concurrent.NewMailboxes[int32](k),
		has:  make([]bool, k),
		got:  make([]bool, k),
	}
	r.has[0], r.got[0] = true, true
	return r
}

func (r *relay) local(p int32) { r.ps.count[p].rounds++ }

func (r *relay) emit(p int32) {
	if r.has[p] && int(p)+1 < r.ps.plan.K {
		r.mail.Put(p, p+1, p+1)
		r.has[p] = false
	}
}

func (r *relay) apply(p int32, m int32) bool {
	if m != p || r.got[p] {
		return false
	}
	r.has[p], r.got[p] = true, true
	return true
}

// superstepState returns an engine over a 4-way partitioned path and its
// partitioned scaffolding, readied for one call.
func superstepState(t *testing.T) (*Engine, *partState) {
	t.Helper()
	g := chain(16)
	e := New(g, partView(g, 4), 4)
	ps := e.partitioned()
	if ps.plan.K != 4 {
		t.Fatalf("plan has %d partitions, want 4", ps.plan.K)
	}
	return e, ps
}

// TestSuperstepsStopWhenNothingSent: with no boundary traffic the loop
// runs exactly one superstep and never reaches its apply phase.
func TestSuperstepsStopWhenNothingSent(t *testing.T) {
	e, ps := superstepState(t)
	mail := concurrent.NewMailboxes[int32](ps.plan.K)
	w0 := ps.window
	steps, sent, total := supersteps(e, ps, mail,
		func(p int32) { ps.count[p].rounds++ },
		func(p int32) {},
		func(p int32, m int32) bool {
			t.Errorf("partition %d: apply ran with nothing sent", p)
			return false
		})
	if steps != 1 || sent != 0 {
		t.Errorf("steps, sent = %d, %d; want 1, 0", steps, sent)
	}
	if total.rounds != int64(ps.plan.K) {
		t.Errorf("summed rounds = %d, want one per partition (%d)", total.rounds, ps.plan.K)
	}
	if ps.window != w0+1 {
		t.Errorf("window advanced by %d, want 1 per superstep", ps.window-w0)
	}
}

// TestSuperstepsStopWhenNothingApplied: an exchange whose messages all
// fail to improve their targets ends the loop, with every box drained.
func TestSuperstepsStopWhenNothingApplied(t *testing.T) {
	e, ps := superstepState(t)
	k := ps.plan.K
	mail := concurrent.NewMailboxes[int32](k)
	var applies atomic.Int64
	steps, sent, total := supersteps(e, ps, mail,
		func(p int32) {},
		func(p int32) { mail.Put(p, int32((int(p)+1)%k), p) },
		func(p int32, m int32) bool {
			applies.Add(1)
			return false
		})
	if steps != 1 || sent != int64(k) {
		t.Errorf("steps, sent = %d, %d; want 1, %d", steps, sent, k)
	}
	if applies.Load() != int64(k) || total.applied != 0 {
		t.Errorf("apply ran %d times and %d applied; want %d and 0", applies.Load(), total.applied, k)
	}
	if err := mail.Validate(true); err != nil {
		t.Error(err)
	}
}

// TestSuperstepsRelayConverges: the loop keeps exchanging while each
// exchange applies something, and stops on the first superstep that
// sends nothing — k supersteps and k-1 messages for a relay across k
// partitions.
func TestSuperstepsRelayConverges(t *testing.T) {
	e, ps := superstepState(t)
	k := ps.plan.K
	r := newRelay(ps)
	w0 := ps.window
	steps, sent, total := supersteps(e, ps, r.mail, r.local, r.emit, r.apply)
	if steps != k || sent != int64(k-1) {
		t.Errorf("steps, sent = %d, %d; want %d, %d", steps, sent, k, k-1)
	}
	if total.applied != int64(k-1) {
		t.Errorf("summed applied = %d, want %d", total.applied, k-1)
	}
	if total.rounds != int64(k*steps) {
		t.Errorf("summed rounds = %d, want one per partition per superstep (%d)", total.rounds, k*steps)
	}
	if !r.has[k-1] {
		t.Error("the token never reached the last partition")
	}
	if ps.window != w0+int64(steps) {
		t.Errorf("window advanced by %d over %d supersteps", ps.window-w0, steps)
	}
}

// TestSuperstepsPhaseOrder pins the barrier order: within a superstep
// every local run ends before any emit starts, every emit ends before any
// apply starts, and the exchange window closes between emit and apply,
// so an improvement applied in phase 3 is dirty in the next window.
func TestSuperstepsPhaseOrder(t *testing.T) {
	e, ps := superstepState(t)
	k := int64(ps.plan.K)
	r := newRelay(ps)
	var locals, emits atomic.Int64
	emitWindow := make([]int64, k)
	local := func(p int32) {
		c := locals.Add(1)
		if got, want := emits.Load(), k*((c-1)/k); got != want {
			t.Errorf("local %d: %d emits done, want %d", c, got, want)
		}
		r.local(p)
	}
	emit := func(p int32) {
		c := emits.Add(1)
		if got, want := locals.Load(), k*((c-1)/k+1); got != want {
			t.Errorf("emit %d: %d local runs done, want %d", c, got, want)
		}
		emitWindow[p] = ps.window
		r.emit(p)
	}
	apply := func(p int32, m int32) bool {
		if l, em := locals.Load(), emits.Load(); em != l || em%k != 0 {
			t.Errorf("apply: %d emits after %d local runs, want a whole superstep of each", em, l)
		}
		if ps.window != emitWindow[p]+1 {
			t.Errorf("apply in partition %d: window %d, want the emit window %d + 1", p, ps.window, emitWindow[p])
		}
		return r.apply(p, m)
	}
	if steps, _, _ := supersteps(e, ps, r.mail, local, emit, apply); steps != int(k) {
		t.Errorf("steps = %d, want %d", steps, k)
	}
}

// TestSuperstepsCountersPerCall: the partition counters cover one call
// only. A second call readied by partitioned() reports the same totals
// as the first, not their sum.
func TestSuperstepsCountersPerCall(t *testing.T) {
	e, ps := superstepState(t)
	r := newRelay(ps)
	_, _, first := supersteps(e, ps, r.mail, r.local, r.emit, r.apply)
	ps = e.partitioned()
	r = newRelay(ps)
	_, _, second := supersteps(e, ps, r.mail, r.local, r.emit, r.apply)
	if first != second {
		t.Errorf("second call totals %+v, first %+v", second, first)
	}
}
