package workloads

import (
	"math"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
)

func TestCCentrPath(t *testing.T) {
	// Path 0-1-2, full sampling: closeness(1) = 2/2 * 1 = 1 (sum of
	// distances 1+1=2, reached-1 = 2, frac = 1).
	g := pathGraph(t, 3)
	_, err := CCentr(g, Options{Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	cc := g.Schema().MustField(CCentrField)
	vw := g.View()
	if got := vw.Verts[1].Prop(cc); math.Abs(got-1) > 1e-12 {
		t.Errorf("closeness(middle) = %v, want 1", got)
	}
	// Ends: distances 1+2=3, closeness = 2/3.
	if got := vw.Verts[0].Prop(cc); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("closeness(end) = %v, want 2/3", got)
	}
}

func TestCCentrDisconnected(t *testing.T) {
	g := buildUndirected(t, 3, [][3]int{{0, 1, 1}}) // 2,3 isolated
	res, err := CCentr(g, Options{Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	cc := g.Schema().MustField(CCentrField)
	vw := g.View()
	// Vertex 0 reaches 1 of 3 others: closeness = 1/1 * (1/3).
	if got := vw.Verts[0].Prop(cc); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("closeness = %v, want 1/3 (Wasserman-Faust)", got)
	}
	if res.Checksum <= 0 {
		t.Error("no centrality accumulated")
	}
}

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

// TestSPathDeltaPartitionSweepBitwise pins the flat CAS kernel against
// Bellman-Ford and the partitioned kernel against the flat one across a
// k-sweep: per-vertex distances must be bitwise identical (all three take
// minima over the same left-to-right float path sums, so no tolerance is
// needed). The second input is the one the retired wall-clock ratchet ran
// this check on.
func TestSPathDeltaPartitionSweepBitwise(t *testing.T) {
	ldbc, err := gen.ByName("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func() *property.Graph
		ks    []int
	}{
		{"ldbc-1500", func() *property.Graph { return gen.LDBC(1500, 21, 0) }, []int{1, 2, 3, 5, 8}},
		{"ldbc-0.02", func() *property.Graph { return ldbc.Generate(0.02, 42, 0) }, []int{1, 2, 4}},
	} {
		base := tc.build()
		fvw := base.View()
		src := fvw.Verts[0].ID
		flat, err := SPathDelta(base, Options{Source: src, View: fvw})
		if err != nil {
			t.Fatal(err)
		}
		fd := base.Schema().MustField(SPathDistField)
		for i, want := range bellmanFord(fvw, 0) {
			if got := fvw.Verts[i].Prop(fd); got != want {
				t.Fatalf("%s flat: dist[%d] = %v, Bellman-Ford says %v", tc.name, fvw.Verts[i].ID, got, want)
			}
		}
		for _, k := range tc.ks {
			g := tc.build()
			vw := g.ViewWith(property.ViewOpts{Partitions: k})
			res, err := SPathDelta(g, Options{Source: src, View: vw, Workers: 3})
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if res.Visited != flat.Visited || res.Checksum != flat.Checksum {
				t.Fatalf("%s k=%d: %d/%g vs flat %d/%g",
					tc.name, k, res.Visited, res.Checksum, flat.Visited, flat.Checksum)
			}
			pd := g.Schema().MustField(SPathDistField)
			for i := range vw.Verts {
				j := fvw.IndexOf(vw.Verts[i].ID)
				if j < 0 {
					t.Fatalf("%s k=%d: vertex %d missing from flat view", tc.name, k, vw.Verts[i].ID)
				}
				if a, b := vw.Verts[i].Prop(pd), fvw.Verts[j].Prop(fd); a != b {
					t.Fatalf("%s k=%d: dist[%d] = %v, flat %v", tc.name, k, vw.Verts[i].ID, a, b)
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
// both sides of serialVisits — the lollipop's clique drains fork, its
// path drains and every drain of the road grid stay on the caller — and
// holds the distances to Bellman-Ford bit for bit at one, two and four
// workers. Each graph is solved from a second source first, so a slot the
// final write-back skipped would still hold that run's distance; the road
// grid has vertices neither source reaches. The relaxed counts are the
// ones the kernel made at one worker before it had a serial path.
func TestSPathDeltaDrainSeam(t *testing.T) {
	const k = 514
	if (k-1)*(k-1) <= serialVisits {
		t.Fatal("clique no longer outgrows serialVisits; enlarge it")
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
	if _, err := CCentr(empty, Options{}); err != ErrEmptyGraph {
		t.Error("CCentr on empty graph should fail")
	}
	if _, err := BFSDirOpt(empty, Options{}); err != ErrEmptyGraph {
		t.Error("BFSDirOpt on empty graph should fail")
	}
	if _, err := SPathDelta(empty, Options{}); err != ErrEmptyGraph {
		t.Error("SPathDelta on empty graph should fail")
	}
	single := property.New(property.Options{})
	single.AddVertex(1)
	for name, run := range map[string]func(*property.Graph, Options) (*Result, error){
		"CCentr": CCentr, "BFSDirOpt": BFSDirOpt, "SPathDelta": SPathDelta,
	} {
		if _, err := run(single, Options{}); err != nil {
			t.Errorf("%s on single vertex: %v", name, err)
		}
	}
}

func TestCCompLPMatchesCComp(t *testing.T) {
	g := gen.Gene(2000, 9, 0)
	bfsBased, err := CComp(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.Gene(2000, 9, 0)
	lp, err := CCompLP(g2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bfsBased.Stats["components"] != lp.Stats["components"] {
		t.Errorf("components: bfs %v vs lp %v",
			bfsBased.Stats["components"], lp.Stats["components"])
	}
	if bfsBased.Stats["largest"] != lp.Stats["largest"] {
		t.Errorf("largest: bfs %v vs lp %v",
			bfsBased.Stats["largest"], lp.Stats["largest"])
	}
}

func TestCCompLPParallelMatches(t *testing.T) {
	g := gen.LDBC(1000, 4, 0)
	seq, err := CCompLP(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.LDBC(1000, 4, 0)
	par, err := CCompLP(g2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats["components"] != par.Stats["components"] {
		t.Errorf("parallel LP differs: %v vs %v",
			seq.Stats["components"], par.Stats["components"])
	}
}
