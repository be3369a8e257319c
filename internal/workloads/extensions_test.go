package workloads

import (
	"maps"
	"math"
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/property"
)

func TestBFSDirOptMatchesBFS(t *testing.T) {
	g := gen.LDBC(1500, 13, 0)
	base, err := BFS(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.LDBC(1500, 13, 0)
	opt, err := BFSDirOpt(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Visited != opt.Visited || base.Checksum != opt.Checksum {
		t.Errorf("direction-optimized BFS differs: %+v vs %+v", base, opt)
	}
	// The checksum is summed from the kernel's distances, so it cannot see
	// a level the write-back dropped: compare the stored property too.
	lvl := g.Schema().MustField(BFSLevelField)
	lvl2 := g2.Schema().MustField(BFSLevelField)
	vw, vw2 := g.View(), g2.View()
	for i, v := range vw.Verts {
		if a, b := v.Prop(lvl), vw2.Verts[i].Prop(lvl2); a != b {
			t.Fatalf("vertex %d: BFS level %v, BFSDirOpt level %v", v.ID, a, b)
		}
	}
	// On a dense social graph the bottom-up path must actually engage.
	if opt.Stats["bottom_up_levels"] == 0 {
		t.Error("bottom-up never engaged on a social graph")
	}
}

func TestBFSDirOptParallelMatches(t *testing.T) {
	g := gen.LDBC(1500, 3, 0)
	seq, err := BFSDirOpt(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.LDBC(1500, 3, 0)
	par, err := BFSDirOpt(g2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Visited != par.Visited || seq.Checksum != par.Checksum {
		t.Errorf("parallel dir-opt BFS differs")
	}
}

// TestGConsParallelMatches: the per-vertex edge counts that parallel
// workers add into one atomic total must sum to the same figure as a
// single worker's, and to the edges the constructed graph holds.
func TestGConsParallelMatches(t *testing.T) {
	seq, err := GCons(gen.LDBC(1500, 3, 0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := GCons(gen.LDBC(1500, 3, 0), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Visited == 0 {
		t.Fatal("GCons added no edges")
	}
	if par.Visited != seq.Visited || par.Checksum != seq.Checksum {
		t.Errorf("parallel GCons = %d edges (checksum %v), sequential = %d (checksum %v)",
			par.Visited, par.Checksum, seq.Visited, seq.Checksum)
	}
	if float64(par.Visited) != par.Stats["edges"] {
		t.Errorf("counted %d added edges, constructed graph holds %v", par.Visited, par.Stats["edges"])
	}
}

// TestSampleDelta pins the edge-sampled delta heuristic: small arrays
// are covered exhaustively (stride 1), the estimate is the exact mean
// then, large arrays sample deterministically, and the result is
// clamped to >= 1.
func TestSampleDelta(t *testing.T) {
	if got := sampleDelta(nil); got != 1 {
		t.Errorf("sampleDelta(nil) = %v, want 1 (clamp floor)", got)
	}
	// 10 edges fit the budget: exact mean, no vertex-stride skew.
	small := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if got := sampleDelta(small); got != 5 {
		t.Errorf("sampleDelta(uniform 5s) = %v, want 5", got)
	}
	// Sub-1 means clamp to the delta floor.
	if got := sampleDelta([]float64{0.25, 0.25}); got != 1 {
		t.Errorf("sampleDelta(tiny weights) = %v, want 1", got)
	}
	// The old per-vertex heuristic skipped most vertices on small skewed
	// views; edge sampling must weight every edge equally. 100 weight-9
	// edges mixed with 100 weight-1 edges => mean 5 exactly.
	mixed := make([]float64, 200)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = 9
		} else {
			mixed[i] = 1
		}
	}
	if got := sampleDelta(mixed); got != 5 {
		t.Errorf("sampleDelta(mixed) = %v, want 5", got)
	}
	// Beyond the budget the stride is deterministic: same input, same
	// estimate, and still within the weight range.
	big := make([]float64, 3*4096+17)
	for i := range big {
		big[i] = 2 + float64(i%7)
	}
	a, b := sampleDelta(big), sampleDelta(big)
	if a != b {
		t.Errorf("sampleDelta not deterministic: %v vs %v", a, b)
	}
	if a < 2 || a > 8 {
		t.Errorf("sampleDelta(big) = %v, outside weight range [2,8]", a)
	}
}

// TestTunedDelta pins the degree normalization: the default width is
// the mean edge weight over the average out-degree, floored at 0.25.
func TestTunedDelta(t *testing.T) {
	// 4 vertices, uniform weight 6, avg out-degree 3 => delta 2.
	g := property.New(property.Options{Directed: true, TrackInEdges: true})
	for id := property.VertexID(0); id < 4; id++ {
		g.AddVertex(id)
	}
	for s := property.VertexID(0); s < 4; s++ {
		for d := property.VertexID(0); d < 4; d++ {
			if s != d {
				if err := g.AddEdge(s, d, 6); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	vw := g.ViewWith(property.ViewOpts{})
	if got := tunedDelta(vw); got != 2 {
		t.Errorf("tunedDelta(K4, w=6) = %v, want 6/3 = 2", got)
	}
	// A huge degree would push delta below the 0.25 floor; the sampled
	// mean is clamped >= 1 and 1/deg < 0.25 for deg > 4.
	hub := property.New(property.Options{Directed: true, TrackInEdges: true})
	for id := property.VertexID(0); id < 10; id++ {
		hub.AddVertex(id)
	}
	for d := property.VertexID(1); d < 10; d++ {
		if err := hub.AddEdge(0, d, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	// 9 edges over 10 vertices: avg degree < 1 clamps to 1, so delta is
	// the (clamped) mean weight.
	if got := tunedDelta(hub.ViewWith(property.ViewOpts{})); got != 1 {
		t.Errorf("tunedDelta(sparse hub) = %v, want 1 (deg clamp)", got)
	}
}

// TestSPathDeltaOverride checks the -delta plumbing: an explicit width
// reaches the kernel (reported back in Stats) and leaves the distances
// untouched — delta steers scheduling, not results.
func TestSPathDeltaOverride(t *testing.T) {
	g := gen.Road(800, 4, 0)
	base, err := SPathDelta(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.Road(800, 4, 0)
	over, err := SPathDelta(g2, Options{Delta: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	if over.Stats["delta"] != 3.5 {
		t.Errorf("Stats[delta] = %v, want the 3.5 override", over.Stats["delta"])
	}
	if base.Visited != over.Visited || base.Checksum != over.Checksum {
		t.Errorf("delta override changed results: %+v vs %+v", base, over)
	}
}

// TestSPathDeltaRejectsBadOverride: a width that is not a width is an
// error, not a silently wrong answer (NaN used to settle one vertex) or an
// index panic (1e-300 used to), and the graph is left untouched.
func TestSPathDeltaRejectsBadOverride(t *testing.T) {
	g := gen.Road(100, 4, 0)
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300, 1e-300, minDelta / 2} {
		if res, err := SPathDelta(g, Options{Delta: d}); err == nil {
			t.Errorf("Delta %v: ran (%+v), want an error", d, res)
		}
	}
	if g.Schema().Field(SPathDistField) >= 0 {
		t.Error("a rejected override still added the distance field")
	}
	for _, d := range []float64{0, math.Copysign(0, -1), 1e-3, math.MaxFloat64} {
		if _, err := SPathDelta(gen.Road(100, 4, 0), Options{Delta: d}); err != nil {
			t.Errorf("Delta %v: %v", d, err)
		}
	}
}

// bellmanFord is the textbook reference for the delta-stepping kernels:
// relax every edge of the view until nothing moves. It takes minima over
// the same left-to-right float path sums as they do, so its distances
// (by view index) must match theirs bit for bit.
func bellmanFord(vw *property.View, src int32) []float64 {
	dist := make([]float64, vw.Len())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for u := range dist {
			du := dist[u]
			if math.IsInf(du, 1) {
				continue
			}
			adj := vw.Adj(int32(u))
			wts := vw.AdjW(int32(u))
			for j, v := range adj {
				if nd := du + wts[j]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
	}
	return dist
}

// TestBellmanFordOracle checks the reference itself on a handmade graph
// where the greedy first path is not the shortest: 1->2->4 costs 6,
// 1->3->4 costs 3.
func TestBellmanFordOracle(t *testing.T) {
	g := property.New(property.Options{Directed: true, TrackInEdges: true})
	for id := property.VertexID(1); id <= 5; id++ {
		g.AddVertex(id)
	}
	for _, e := range []struct {
		s, d property.VertexID
		w    float64
	}{{1, 2, 1}, {2, 4, 5}, {1, 3, 2}, {3, 4, 1}, {4, 5, 0.5}} {
		if err := g.AddEdge(e.s, e.d, e.w); err != nil {
			t.Fatal(err)
		}
	}
	vw := g.View()
	dist := bellmanFord(vw, vw.IndexOf(1))
	for id, want := range map[property.VertexID]float64{1: 0, 2: 1, 3: 2, 4: 3, 5: 3.5} {
		if got := dist[vw.IndexOf(id)]; got != want {
			t.Errorf("dist[%d] = %v, want %v", id, got, want)
		}
	}
}

// heavyPath is a 6000-edge directed path of unit weights but one, w, at an
// edge the strided weight sample skips, so the sampled bucket width stays
// 1 and the heavy edge's far end lands w buckets up — past any dense
// bucket array at 1e12, past the largest int at 1e19.
func heavyPath(w float64) *property.Graph {
	g := property.New(property.Options{Directed: true, TrackInEdges: true})
	for i := 0; i <= 6000; i++ {
		g.AddVertex(property.VertexID(i))
	}
	for i := 0; i < 6000; i++ {
		wt := 1.0
		if i == 3001 {
			wt = w
		}
		if err := g.AddEdge(property.VertexID(i), property.VertexID(i+1), wt); err != nil {
			panic(err)
		}
	}
	return g
}

// TestCCompDirectedIsOutReachInViewOrder pins what CComp computes on a
// directed graph: seeds are tried in View order, and each labels the
// unlabeled vertices it reaches by out-edges. Those are not the weakly
// connected components, and they depend on the order: the directed path
// heavyPath is one component on a plain View, whose first seed is the
// path's head, and two under order.Cluster. Native and instrumented runs
// agree with an out-reach reference on both Views.
func TestCCompDirectedIsOutReachInViewOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  property.ViewOpts
		comps float64
	}{
		{"plain", property.ViewOpts{}, 1},
		{"cluster", property.ViewOpts{Order: order.Cluster}, 2},
	} {
		for _, tracked := range []bool{false, true} {
			g := heavyPath(1)
			vw := g.ViewWith(tc.opts)
			if tracked {
				g.SetTracker(mem.NewCounting())
			}
			res, err := CComp(g, Options{View: vw, Workers: 2})
			g.SetTracker(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats["components"] != tc.comps {
				t.Errorf("%s tracked=%v: %v components, want %v", tc.name, tracked, res.Stats["components"], tc.comps)
			}
			// Reference: a BFS over out-edges from each unlabeled vertex
			// in View order.
			want := make([]int32, vw.Len())
			for i := range want {
				want[i] = -1
			}
			label := int32(0)
			for s := range want {
				if want[s] >= 0 {
					continue
				}
				want[s] = label
				for q := []int32{int32(s)}; len(q) > 0; q = q[1:] {
					for _, w := range vw.Adj(q[0]) {
						if want[w] < 0 {
							want[w] = label
							q = append(q, w)
						}
					}
				}
				label++
			}
			slot := g.Schema().MustField(CCompField)
			for i, v := range vw.Verts {
				if got := v.Prop(slot); got != float64(want[i]) {
					t.Fatalf("%s tracked=%v: vertex %d labelled %v, out-reach from View order says %d", tc.name, tracked, v.ID, got, want[i])
				}
			}
		}
	}
}

// TestSPathDeltaPartitionSweepBitwise pins the delta-stepping kernel
// against Bellman-Ford, and BFS, BFSDirOpt, CComp and SPathDelta on the
// View that partitioned-social and ext04 build (cluster order and a k-way
// plan) against the same kernel on a plain View. A plan only describes
// the View, so per-vertex results must be bitwise identical by vertex ID
// (component labels canonicalized), the Result.Stats key sets equal, and
// the engine's superstep counters zero. The path inputs drain through
// spilled and saturated buckets; they are directed, and on a directed
// graph CComp's out-edge components depend on the order its seeds are
// tried in (TestCCompDirectedIsOutReachInViewOrder), so there CComp is
// left out.
func TestSPathDeltaPartitionSweepBitwise(t *testing.T) {
	ldbc, err := gen.ByName("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		name, field string
		fn          runWorkload
	}{
		{"BFS", BFSLevelField, BFS},
		{"BFSDirOpt", BFSLevelField, BFSDirOpt},
		{"CComp", CCompField, CComp},
		{"SPathDelta", SPathDistField, SPathDelta},
	}
	type outcome struct {
		res   *Result
		props map[property.VertexID]float64
		reach int64 // engine.Traverse from the source
	}
	// runAll runs every kernel from src on g through vw, reading each
	// result field back by vertex ID before the next kernel runs.
	runAll := func(t *testing.T, g *property.Graph, vw *property.View, src property.VertexID) map[string]outcome {
		t.Helper()
		out := make(map[string]outcome, len(kernels))
		for _, kn := range kernels {
			res, err := kn.fn(g, Options{Source: src, View: vw, Workers: 3})
			if err != nil {
				t.Fatalf("%s: %v", kn.name, err)
			}
			slot := g.Schema().MustField(kn.field)
			props := make(map[property.VertexID]float64, vw.Len())
			for _, v := range vw.Verts {
				props[v.ID] = v.Prop(slot)
			}
			if kn.name == "CComp" {
				props = canonLabels(props)
			}
			out[kn.name] = outcome{res: res, props: props}
		}
		dist := make([]int32, vw.Len())
		for i := range dist {
			dist[i] = -1
		}
		s := vw.IndexOf(src)
		dist[s] = 0
		st := engine.New(g, vw, 3).Traverse(&engine.Spec{Dist: dist}, s)
		if st.Supersteps != 0 || st.BoundarySent != 0 {
			t.Errorf("Traverse reports %d supersteps and %d boundary messages, want 0", st.Supersteps, st.BoundarySent)
		}
		out["Traverse"] = outcome{reach: st.Reached}
		return out
	}
	for _, tc := range []struct {
		name     string
		build    func() *property.Graph
		directed bool
	}{
		{"ldbc-1500", func() *property.Graph { return gen.LDBC(1500, 21, 0) }, false},
		{"ldbc-0.02", func() *property.Graph { return ldbc.Generate(0.02, 42, 0) }, false},
		{"path-1e12", func() *property.Graph { return heavyPath(1e12) }, true},
		{"path-1e19", func() *property.Graph { return heavyPath(1e19) }, true},
	} {
		base := tc.build()
		fvw := base.View()
		src := fvw.Verts[0].ID
		plain := runAll(t, base, fvw, src)
		fd := base.Schema().MustField(SPathDistField)
		for i, want := range bellmanFord(fvw, 0) {
			if got := plain["SPathDelta"].props[fvw.Verts[i].ID]; got != want {
				t.Fatalf("%s: dist[%d] = %v, Bellman-Ford says %v", tc.name, fvw.Verts[i].ID, got, want)
			}
			if got := fvw.Verts[i].Prop(fd); got != want {
				t.Fatalf("%s: field dist[%d] = %v, Bellman-Ford says %v", tc.name, fvw.Verts[i].ID, got, want)
			}
		}
		for _, k := range []int{1, 2, 4} {
			g := tc.build()
			vw := g.ViewWith(property.ViewOpts{Order: order.Cluster, Partitions: k})
			if plan := vw.Partitions(); plan == nil || plan.K != k {
				t.Fatalf("%s k=%d: the View carries plan %v", tc.name, k, plan)
			}
			got := runAll(t, g, vw, src)
			if got["Traverse"].reach != plain["Traverse"].reach {
				t.Errorf("%s k=%d: Traverse reached %d, plain %d", tc.name, k, got["Traverse"].reach, plain["Traverse"].reach)
			}
			for _, kn := range kernels {
				if tc.directed && kn.name == "CComp" {
					continue
				}
				a, b := got[kn.name], plain[kn.name]
				// SPathDelta's checksum sums floats in View order, so on
				// the 1e19 path it rounds differently; its per-vertex
				// distances below are the exact check.
				if a.res.Visited != b.res.Visited || kn.name != "SPathDelta" && a.res.Checksum != b.res.Checksum {
					t.Errorf("%s k=%d %s: %d/%g, plain %d/%g", tc.name, k, kn.name,
						a.res.Visited, a.res.Checksum, b.res.Visited, b.res.Checksum)
				}
				if ak, bk := slices.Sorted(maps.Keys(a.res.Stats)), slices.Sorted(maps.Keys(b.res.Stats)); !slices.Equal(ak, bk) {
					t.Errorf("%s k=%d %s: stats keys %v, plain %v", tc.name, k, kn.name, ak, bk)
				}
				if len(a.props) != len(b.props) {
					t.Fatalf("%s k=%d %s: %d vertices, plain %d", tc.name, k, kn.name, len(a.props), len(b.props))
				}
				for id, want := range b.props {
					if math.Float64bits(a.props[id]) != math.Float64bits(want) {
						t.Fatalf("%s k=%d %s: vertex %d = %v, plain %v", tc.name, k, kn.name, id, a.props[id], want)
					}
				}
			}
		}
	}
}

// weightedLollipop is two k-cliques joined by a path of `path` vertices,
// with weights in [1,4) that break the triangle inequality inside the
// cliques, so a wide bucket re-relaxes its own members. Under a bucket
// width of 8 each clique is one drain of (k-1)^2 edge visits and the path
// a run of drains of a few vertices each.
func weightedLollipop(k, path int) *property.Graph {
	n := 2*k + path
	g := property.New(property.Options{})
	for i := 0; i < n; i++ {
		g.AddVertex(property.VertexID(i))
	}
	add := func(u, v int) {
		w := 1 + 3*float64((u*31+v*17)%97)/97
		if err := g.AddEdge(property.VertexID(u), property.VertexID(v), w); err != nil {
			panic(err)
		}
	}
	for _, lo := range []int{0, k + path} {
		for u := lo; u < lo+k; u++ {
			for v := u + 1; v < lo+k; v++ {
				add(u, v)
			}
		}
	}
	for i := k - 1; i < k+path; i++ {
		add(i, i+1)
	}
	return g
}

// TestSPathDeltaDrainSeam runs the flat kernel where its drains sit on
// both sides of the drain floor (the engine's serialGrain, 256 Ki edge
// visits) — the lollipop's clique drains fork, its
// path drains and every drain of the road grid stay on the caller — and
// holds the distances to Bellman-Ford bit for bit at one, two and four
// workers. Each graph is solved from a second source first, so a slot the
// final write-back skipped would still hold that run's distance; the road
// grid has vertices neither source reaches. The relaxed counts are the
// ones the kernel made at one worker before it had a serial path.
func TestSPathDeltaDrainSeam(t *testing.T) {
	const k, floor = 514, 256 << 10
	if (k-1)*(k-1) <= floor {
		t.Fatal("clique no longer outgrows the drain floor; enlarge it")
	}
	for _, tc := range []struct {
		name    string
		g       *property.Graph
		delta   float64
		relaxed float64
	}{
		{"lollipop", weightedLollipop(k, 300), 8, 3538},
		{"road", gen.Road(6000, 5, 0), 0, 6804},
	} {
		vw := tc.g.View()
		src := vw.Verts[0].ID
		want := bellmanFord(vw, 0)
		fd := tc.g.EnsureField(SPathDistField)
		for _, workers := range []int{1, 2, 4} {
			other := vw.Verts[vw.Len()/2].ID
			if _, err := SPathDelta(tc.g, Options{Source: other, View: vw, Workers: workers, Delta: tc.delta}); err != nil {
				t.Fatal(err)
			}
			res, err := SPathDelta(tc.g, Options{Source: src, View: vw, Workers: workers, Delta: tc.delta})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got := vw.Verts[i].Prop(fd); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers=%d: dist[%d] = %v, Bellman-Ford says %v", tc.name, workers, vw.Verts[i].ID, got, want[i])
				}
			}
			if workers == 1 && res.Stats["relaxed"] != tc.relaxed {
				t.Errorf("%s: %v relaxations at one worker, the forking kernel made %v", tc.name, res.Stats["relaxed"], tc.relaxed)
			}
		}
	}
}

func TestSPathDeltaMatchesDijkstra(t *testing.T) {
	g := gen.LDBC(1200, 17, 0)
	dj, err := SPath(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.LDBC(1200, 17, 0)
	ds, err := SPathDelta(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dj.Visited != ds.Visited {
		t.Fatalf("settled: dijkstra %d vs delta %d", dj.Visited, ds.Visited)
	}
	if math.Abs(dj.Checksum-ds.Checksum) > 1e-6*math.Max(1, dj.Checksum) {
		t.Errorf("distance sums differ: %v vs %v", dj.Checksum, ds.Checksum)
	}
	// Per-vertex distances identical.
	d1 := g.Schema().MustField(SPathDistField)
	d2 := g2.Schema().MustField(SPathDistField)
	vw1, vw2 := g.View(), g2.View()
	for i := range vw1.Verts {
		a, b := vw1.Verts[i].Prop(d1), vw2.Verts[i].Prop(d2)
		if a != b && !(math.IsInf(a, 1) && math.IsInf(b, 1)) {
			t.Fatalf("dist[%d]: %v vs %v", i, a, b)
		}
	}
}

func TestSPathDeltaParallelMatches(t *testing.T) {
	g := gen.Road(2000, 5, 0)
	seq, err := SPathDelta(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.Road(2000, 5, 0)
	par, err := SPathDelta(g2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Visited != par.Visited || math.Abs(seq.Checksum-par.Checksum) > 1e-6 {
		t.Errorf("parallel delta-stepping differs: %+v vs %+v", seq, par)
	}
}

func TestExtensionsOnTrivialGraphs(t *testing.T) {
	empty := property.New(property.Options{})
	if _, err := BFSDirOpt(empty, Options{}); err != ErrEmptyGraph {
		t.Error("BFSDirOpt on empty graph should fail")
	}
	if _, err := SPathDelta(empty, Options{}); err != ErrEmptyGraph {
		t.Error("SPathDelta on empty graph should fail")
	}
	single := property.New(property.Options{})
	single.AddVertex(1)
	for name, run := range map[string]func(*property.Graph, Options) (*Result, error){
		"BFSDirOpt": BFSDirOpt, "SPathDelta": SPathDelta,
	} {
		if _, err := run(single, Options{}); err != nil {
			t.Errorf("%s on single vertex: %v", name, err)
		}
	}
}

// TestTwinKernelsAgreeOnEveryDataset holds each alternative kernel to the
// one it stands in for on all five datasets: direction-optimized BFS to
// push BFS and delta-stepping to Dijkstra, level for level and distance for
// distance. The datasets span the regimes the alternatives switch on:
// skewed social graphs, a directed bipartite graph, a high-diameter road
// grid.
func TestTwinKernelsAgreeOnEveryDataset(t *testing.T) {
	datasets := []struct {
		name  string
		build func() *property.Graph
	}{
		{"twitter", func() *property.Graph { return gen.Twitter(1200, 11, 0) }},
		{"knowledge", func() *property.Graph { return gen.Knowledge(700, 11, 0) }},
		{"watson-gene", func() *property.Graph { return gen.Gene(900, 11, 0) }},
		{"ca-road", func() *property.Graph { return gen.Road(1200, 11, 0) }},
		{"ldbc", func() *property.Graph { return gen.LDBC(900, 11, 0) }},
	}
	twins := []struct {
		name, field string
		base, alt   runWorkload
	}{
		{"BFSDirOpt", BFSLevelField, BFS, BFSDirOpt},
		{"SPathDelta", SPathDistField, SPath, SPathDelta},
	}
	for _, ds := range datasets {
		for _, tw := range twins {
			t.Run(ds.name+"/"+tw.name, func(t *testing.T) {
				g, h := ds.build(), ds.build()
				gv, hv := g.View(), h.View()
				src := gv.Verts[gv.Len()/4].ID
				base, err := tw.base(g, Options{View: gv, Source: src, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				alt, err := tw.alt(h, Options{View: hv, Source: src, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if base.Visited != alt.Visited {
					t.Errorf("visited %d, %s visits %d", base.Visited, tw.name, alt.Visited)
				}
				gf, hf := g.Schema().MustField(tw.field), h.Schema().MustField(tw.field)
				for i, v := range gv.Verts {
					if a, b := v.Prop(gf), hv.Verts[i].Prop(hf); a != b {
						t.Fatalf("vertex %d: %v, %s stores %v", v.ID, a, tw.name, b)
					}
				}
			})
		}
	}
}
