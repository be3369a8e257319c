package workloads

import (
	"math"
	"testing"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

// buildUndirected returns an undirected property graph over the given
// weighted edges, creating vertices 0..maxID.
func buildUndirected(t *testing.T, maxID int, edges [][3]int) *property.Graph {
	t.Helper()
	g := property.New(property.Options{Hint: maxID + 1})
	for i := 0; i <= maxID; i++ {
		g.AddVertex(property.VertexID(i))
	}
	for _, e := range edges {
		if err := g.AddEdge(property.VertexID(e[0]), property.VertexID(e[1]), float64(e[2])); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g
}

// pathGraph returns 0-1-2-...-n-1 with unit weights.
func pathGraph(t *testing.T, n int) *property.Graph {
	t.Helper()
	edges := make([][3]int, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [3]int{i, i + 1, 1})
	}
	return buildUndirected(t, n-1, edges)
}

// trianglePlusTail: triangle 0-1-2 plus tail 2-3.
func trianglePlusTail(t *testing.T) *property.Graph {
	return buildUndirected(t, 3, [][3]int{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1}})
}

func TestBFSPathLevels(t *testing.T) {
	g := pathGraph(t, 6)
	res, err := BFS(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 6 {
		t.Errorf("visited = %d, want 6", res.Visited)
	}
	// Levels on a path from 0 are 0..5; checksum = 0+1+2+3+4+5 = 15.
	if res.Checksum != 15 {
		t.Errorf("level checksum = %v, want 15", res.Checksum)
	}
	if res.Stats["depth"] != 5 {
		t.Errorf("depth = %v, want 5", res.Stats["depth"])
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := buildUndirected(t, 3, [][3]int{{0, 1, 1}}) // 2 and 3 isolated
	res, err := BFS(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 2 {
		t.Errorf("visited = %d, want 2 (component of source only)", res.Visited)
	}
}

func TestBFSParallelMatchesSequential(t *testing.T) {
	g := trianglePlusTail(t)
	seq, err := BFS(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := BFS(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Visited != par.Visited || seq.Checksum != par.Checksum {
		t.Errorf("parallel BFS differs: seq=%+v par=%+v", seq, par)
	}
}

func TestDFSVisitsAllReachable(t *testing.T) {
	g := trianglePlusTail(t)
	res, err := DFS(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 4 {
		t.Errorf("visited = %d, want 4", res.Visited)
	}
	// Preorder numbers must be a permutation of 0..3.
	pre := g.Schema().MustField(DFSOrderField)
	seen := map[int]bool{}
	vw := g.View()
	for _, v := range vw.Verts {
		seen[int(v.Prop(pre))] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Errorf("preorder %d missing", i)
		}
	}
}

func TestSPathDistances(t *testing.T) {
	// 0-1 (w=5), 1-2 (w=1), 0-2 (w=10): best 0->2 is 6.
	g := buildUndirected(t, 2, [][3]int{{0, 1, 5}, {1, 2, 1}, {0, 2, 10}})
	res, err := SPath(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist := g.Schema().MustField(SPathDistField)
	vw := g.View()
	want := []float64{0, 5, 6}
	for i, w := range want {
		if got := vw.Verts[i].Prop(dist); got != w {
			t.Errorf("dist[%d] = %v, want %v", i, got, w)
		}
	}
	if res.Visited != 3 {
		t.Errorf("settled = %d, want 3", res.Visited)
	}
}

func TestKCoreTriangleTail(t *testing.T) {
	g := trianglePlusTail(t)
	res, err := KCore(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	core := g.Schema().MustField(KCoreField)
	vw := g.View()
	want := []float64{2, 2, 2, 1} // triangle vertices core 2, tail core 1
	for i, w := range want {
		if got := vw.Verts[i].Prop(core); got != w {
			t.Errorf("core[%d] = %v, want %v", i, got, w)
		}
	}
	if res.Stats["max_core"] != 2 {
		t.Errorf("max_core = %v, want 2", res.Stats["max_core"])
	}
}

func TestCCompCounts(t *testing.T) {
	// Two components: {0,1,2} path and {3,4} edge, 5 isolated.
	g := buildUndirected(t, 5, [][3]int{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	res, err := CComp(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["components"] != 3 {
		t.Errorf("components = %v, want 3", res.Stats["components"])
	}
	if res.Stats["largest"] != 3 {
		t.Errorf("largest = %v, want 3", res.Stats["largest"])
	}
}

// TestGColorColorsEveryVertex: GColor's rounds run until no vertex is
// left uncolored, natively and under a tracker, and both modes take the
// same rounds. A path needs several.
func TestGColorColorsEveryVertex(t *testing.T) {
	rounds := map[string]float64{}
	for _, mode := range []string{"native", "tracked"} {
		t.Run(mode, func(t *testing.T) {
			g := pathGraph(t, 40)
			vw := g.View()
			if mode == "tracked" {
				g.SetTracker(mem.NewCounting())
			}
			res, err := GColor(g, Options{View: vw})
			if err != nil {
				t.Fatal(err)
			}
			col := g.Schema().MustField(ColorField)
			for _, v := range vw.Verts {
				if v.Prop(col) < 0 {
					t.Fatalf("vertex %d uncolored after %v rounds", v.ID, res.Stats["rounds"])
				}
			}
			if res.Visited != int64(vw.Len()) || res.Stats["rounds"] < 2 {
				t.Errorf("%d of %d colored in %v rounds, want all in several", res.Visited, vw.Len(), res.Stats["rounds"])
			}
			rounds[mode] = res.Stats["rounds"]
		})
	}
	if rounds["native"] != rounds["tracked"] {
		t.Errorf("native rounds %v, tracked %v", rounds["native"], rounds["tracked"])
	}
}

func TestGColorProper(t *testing.T) {
	g := trianglePlusTail(t)
	res, err := GColor(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 4 {
		t.Fatalf("colored = %d, want 4", res.Visited)
	}
	col := g.Schema().MustField(ColorField)
	vw := g.View()
	for _, v := range vw.Verts {
		c := v.Prop(col)
		if c < 0 {
			t.Fatalf("vertex %d uncolored", v.ID)
		}
		for _, e := range v.Out {
			nb := g.FindVertex(e.To)
			if nb.Prop(col) == c {
				t.Errorf("edge %d-%d has equal colors %v", v.ID, e.To, c)
			}
		}
	}
	// Triangle needs >= 3 colors.
	if res.Stats["colors"] < 3 {
		t.Errorf("colors = %v, want >= 3", res.Stats["colors"])
	}
}

func TestTCTriangleCount(t *testing.T) {
	g := trianglePlusTail(t)
	res, err := TC(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["triangles"] != 1 {
		t.Errorf("triangles = %v, want 1", res.Stats["triangles"])
	}
	// K4 has 4 triangles.
	k4 := buildUndirected(t, 3, [][3]int{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}, {1, 3, 1}, {2, 3, 1}})
	res, err = TC(k4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["triangles"] != 4 {
		t.Errorf("K4 triangles = %v, want 4", res.Stats["triangles"])
	}
}

func TestDCentrValues(t *testing.T) {
	g := trianglePlusTail(t) // degrees: 2,2,3,1; n-1 = 3
	_, err := DCentr(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dc := g.Schema().MustField(DCentrField)
	vw := g.View()
	want := []float64{2.0 / 3, 2.0 / 3, 1, 1.0 / 3}
	for i, w := range want {
		if got := vw.Verts[i].Prop(dc); math.Abs(got-w) > 1e-12 {
			t.Errorf("dcentr[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestBCentrPathCenter(t *testing.T) {
	// Path 0-1-2: exact betweenness of middle vertex is 2 (both
	// directions counted with per-source accumulation over all sources).
	g := pathGraph(t, 3)
	_, err := BCentr(g, Options{Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	bc := g.Schema().MustField(BCentrField)
	vw := g.View()
	if got := vw.Verts[1].Prop(bc); got != 2 {
		t.Errorf("bcentr[middle] = %v, want 2", got)
	}
	if got := vw.Verts[0].Prop(bc); got != 0 {
		t.Errorf("bcentr[end] = %v, want 0", got)
	}
}

func TestGConsReplicates(t *testing.T) {
	g := trianglePlusTail(t)
	res, err := GCons(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["vertices"] != 4 {
		t.Errorf("constructed vertices = %v, want 4", res.Stats["vertices"])
	}
	// Undirected input stores each edge twice; the directed construct
	// keeps every record.
	if res.Stats["edges"] != 8 {
		t.Errorf("constructed edges = %v, want 8", res.Stats["edges"])
	}
}

func TestGUpDeletes(t *testing.T) {
	g := trianglePlusTail(t)
	res, err := GUp(g, Options{Samples: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited < 1 || res.Visited > 2 {
		t.Errorf("deleted = %d, want 1..2", res.Visited)
	}
	if got := g.VertexCount(); got != 4-int(res.Visited) {
		t.Errorf("remaining vertices = %d, want %d", got, 4-res.Visited)
	}
	// Graph must stay consistent: no edge points at a deleted vertex.
	g.ForEachVertex(func(v *property.Vertex) {
		for _, e := range v.Out {
			if g.FindVertex(e.To) == nil {
				t.Errorf("dangling edge %d->%d", v.ID, e.To)
			}
		}
	})
}

func TestTMorphMarriesParents(t *testing.T) {
	// DAG-by-ID: edges 0->2, 1->2 (undirected stored). Moralization must
	// marry parents 0 and 1 of vertex 2.
	g := buildUndirected(t, 2, [][3]int{{0, 2, 1}, {1, 2, 1}})
	res, err := TMorph(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["married_pairs"] != 1 {
		t.Errorf("married = %v, want 1", res.Stats["married_pairs"])
	}
	// Moral graph has original 2 edges + 1 marriage = 3.
	if res.Stats["moral_edges"] != 3 {
		t.Errorf("moral edges = %v, want 3", res.Stats["moral_edges"])
	}
}

// TestGibbsRuns: every sweep resamples every node once, and Samples 0
// selects the documented default of 10 sweeps.
func TestGibbsRuns(t *testing.T) {
	net, err := bayes.Generate(bayes.Config{Nodes: 50, Edges: 70, TargetParams: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		samples, sweeps int
	}{
		{"default sweeps", 0, 10},
		{"5 sweeps", 5, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Gibbs(net, Options{Samples: tc.samples, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited != int64(tc.sweeps*50) || res.Stats["sweeps"] != float64(tc.sweeps) {
				t.Errorf("draws = %d over %v sweeps, want %d over %d", res.Visited, res.Stats["sweeps"], tc.sweeps*50, tc.sweeps)
			}
		})
	}
}

func TestInstrumentedMatchesNative(t *testing.T) {
	// The same workload must produce identical results with and without a
	// tracker installed (the tracker only observes).
	g := trianglePlusTail(t)
	native, err := BFS(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := trianglePlusTail(t)
	c := mem.NewCounting()
	vw := g2.View()
	g2.SetTracker(c)
	inst, err := BFS(g2, Options{View: vw})
	if err != nil {
		t.Fatal(err)
	}
	if native.Visited != inst.Visited || native.Checksum != inst.Checksum {
		t.Errorf("instrumented result differs: %+v vs %+v", native, inst)
	}
	if c.TotalInsts() == 0 {
		t.Error("tracker observed no instructions")
	}
	if c.FrameworkShare() <= 0 || c.FrameworkShare() >= 1 {
		t.Errorf("framework share = %v, want in (0,1)", c.FrameworkShare())
	}
}

func TestGibbsDeterministic(t *testing.T) {
	net, _ := bayes.Generate(bayes.Config{Nodes: 30, Edges: 40, TargetParams: 900, Seed: 8})
	a, err := Gibbs(net, Options{Samples: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Gibbs(net, Options{Samples: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Errorf("same seed differs: %v vs %v", a.Checksum, b.Checksum)
	}
	c, err := Gibbs(net, Options{Samples: 6, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum == c.Checksum {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

// TestGColorDenseNeighbourhood colors a 70-clique. Its last vertices see
// more than 64 colored neighbors, past the instrumented kernel's 64-bit
// used-color set, so that kernel falls back to the exact rescan. Native
// and instrumented alike must give every vertex its own color.
func TestGColorDenseNeighbourhood(t *testing.T) {
	const k = 70
	for _, tracked := range []bool{false, true} {
		t.Run(map[bool]string{false: "native", true: "instrumented"}[tracked], func(t *testing.T) {
			g := property.New(property.Options{})
			for i := 0; i < k; i++ {
				g.AddVertex(property.VertexID(i))
			}
			for u := 0; u < k; u++ {
				for v := u + 1; v < k; v++ {
					if err := g.AddEdge(property.VertexID(u), property.VertexID(v), 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			vw := g.View()
			if tracked {
				g.SetTracker(mem.NewCounting())
			}
			res, err := GColor(g, Options{View: vw})
			if err != nil {
				t.Fatal(err)
			}
			if res.Visited != k || res.Stats["colors"] != k {
				t.Errorf("%d colored with %v colors, want %d and %d", res.Visited, res.Stats["colors"], k, k)
			}
			col := g.Schema().MustField(ColorField)
			seen := make(map[float64]bool, k)
			for _, v := range vw.Verts {
				c := v.Prop(col)
				if c < 0 || c >= k || seen[c] {
					t.Fatalf("vertex %d has color %v, taken or out of range", v.ID, c)
				}
				seen[c] = true
			}
		})
	}
}
