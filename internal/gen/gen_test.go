package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/graphbig/graphbig-go/internal/property"
)

func TestCatalogComplete(t *testing.T) {
	if len(Catalog) != 5 {
		t.Fatalf("catalog has %d datasets, want 5 (Table 7)", len(Catalog))
	}
	wantTypes := map[string]SourceType{
		"twitter": SourceSocial, "knowledge": SourceInformation,
		"watson-gene": SourceNature, "ca-road": SourceManMade, "ldbc": SourceSynthetic,
	}
	for _, d := range Catalog {
		if wantTypes[d.Name] != d.Type {
			t.Errorf("%s type = %v, want %v", d.Name, d.Type, wantTypes[d.Name])
		}
		if d.PaperV <= 0 || d.PaperE <= 0 || d.Build == nil {
			t.Errorf("%s catalog entry incomplete", d.Name)
		}
	}
	if _, err := ByName("twitter"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestGenerateScalesVertices(t *testing.T) {
	d, _ := ByName("ldbc")
	g := d.Generate(0.001, 1, 0)
	v := g.VertexCount()
	if v < 900 || v > 1100 {
		t.Errorf("scaled vertices = %d, want ~1000", v)
	}
	// Floor at tiny scales.
	g2 := d.Generate(1e-9, 1, 0)
	if g2.VertexCount() < 64 {
		t.Errorf("minimum size not enforced: %d", g2.VertexCount())
	}
}

// adjacencyHash folds every vertex in shard order and both of its lists in
// stored order, so two graphs with the same edges in a different
// adjacency order hash differently.
func adjacencyHash(g *property.Graph) uint64 {
	h := fnv.New64a()
	var word [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(word[:], x)
		h.Write(word[:])
	}
	g.ForEachVertex(func(v *property.Vertex) {
		put(uint64(v.ID))
		put(uint64(len(v.Out)))
		for _, e := range v.Out {
			put(uint64(e.To))
			put(math.Float64bits(e.Weight))
		}
		put(uint64(len(v.In)))
		for _, src := range v.In {
			put(uint64(src))
		}
	})
	return h.Sum64()
}

// TestDeterminismAcrossWorkers: every generator emits one graph, down to
// the order inside every adjacency list, whatever the worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	builders := map[string]func(v int, seed int64, workers int) *property.Graph{"dag": DAG}
	for _, d := range Catalog {
		builders[d.Name] = d.Build
	}
	for name, build := range builders {
		want := adjacencyHash(build(3000, 7, 1))
		for _, workers := range []int{2, 4, 8} {
			if got := adjacencyHash(build(3000, 7, workers)); got != want {
				t.Errorf("%s: adjacency hash %016x at %d workers, %016x at 1", name, got, workers, want)
			}
		}
	}
}

func TestSeedChangesGraph(t *testing.T) {
	a := LDBC(2000, 1, 0)
	b := LDBC(2000, 2, 0)
	if a.EdgeCount() == b.EdgeCount() {
		// Same count is possible but degree sequences matching too is not.
		same := true
		a.ForEachVertex(func(v *property.Vertex) {
			bv := b.FindVertex(v.ID)
			if bv == nil || bv.OutDegree() != v.OutDegree() {
				same = false
			}
		})
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

// edgeVertexRatio checks E/V against the paper's Table 7 ratio within tol.
func edgeVertexRatio(t *testing.T, name string, v int, wantRatio, tol float64) Profile {
	t.Helper()
	d, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build(v, 42, 0)
	p := Summarize(g)
	ratio := float64(p.E) / float64(p.V)
	if ratio < wantRatio*(1-tol) || ratio > wantRatio*(1+tol) {
		t.Errorf("%s E/V = %.2f, want %.2f ± %.0f%%", name, ratio, wantRatio, tol*100)
	}
	if p.Isolated > p.V/5 {
		t.Errorf("%s has %d/%d isolated vertices", name, p.Isolated, p.V)
	}
	return p
}

func TestLDBCSignature(t *testing.T) {
	p := edgeVertexRatio(t, "ldbc", 20000, 28.82, 0.5)
	if p.DegCV < 0.4 {
		t.Errorf("LDBC degree CV = %.2f, want skew >= 0.4", p.DegCV)
	}
}

func TestTwitterSignature(t *testing.T) {
	p := edgeVertexRatio(t, "twitter", 50000, 7.7, 0.5)
	// A few extreme hubs: max degree far above the mean.
	if float64(p.MaxDeg) < 50*p.AvgDeg {
		t.Errorf("twitter max degree %d not hub-like (avg %.1f)", p.MaxDeg, p.AvgDeg)
	}
	if p.DegCV < 2 {
		t.Errorf("twitter degree CV = %.2f, want extreme skew", p.DegCV)
	}
}

func TestRoadSignature(t *testing.T) {
	p := edgeVertexRatio(t, "ca-road", 20000, 1.47, 0.25)
	if p.MaxDeg > 6 {
		t.Errorf("road max degree = %d, want small regular degree", p.MaxDeg)
	}
	if p.DegCV > 1 {
		t.Errorf("road degree CV = %.2f, want regular", p.DegCV)
	}
}

func TestGeneSignature(t *testing.T) {
	p := edgeVertexRatio(t, "watson-gene", 20000, 6.1, 0.6)
	_ = p
	// Rich properties present.
	g := Gene(1000, 3, 0)
	sch := g.Schema()
	for _, f := range []string{"kind", "expr", "affinity", "score"} {
		if sch.Field(f) < 0 {
			t.Errorf("gene schema missing %q", f)
		}
	}
	nonzero := 0
	g.ForEachVertex(func(v *property.Vertex) {
		if v.Prop(sch.MustField("expr")) != 0 {
			nonzero++
		}
	})
	if nonzero < 500 {
		t.Errorf("gene properties mostly zero (%d/1000 set)", nonzero)
	}
}

func TestKnowledgeBipartite(t *testing.T) {
	g := Knowledge(5000, 5, 0)
	sch := g.Schema()
	kind := sch.MustField("kind")
	violations := 0
	g.ForEachVertex(func(v *property.Vertex) {
		vk := v.Prop(kind)
		for _, e := range v.Out {
			u := g.FindVertex(e.To)
			if u.Prop(kind) == vk {
				violations++
			}
		}
	})
	if violations > 0 {
		t.Errorf("%d same-side edges in bipartite graph", violations)
	}
	// Popular documents exist (zipf).
	p := Summarize(g)
	if float64(p.MaxDeg) < 5*p.AvgDeg {
		t.Errorf("knowledge lacks hot documents: max %d avg %.1f", p.MaxDeg, p.AvgDeg)
	}
}

func TestDAGIsAcyclicByConstruction(t *testing.T) {
	g := DAG(1000, 9, 0)
	if !g.Directed() {
		t.Fatal("DAG must be directed")
	}
	g.ForEachVertex(func(v *property.Vertex) {
		for _, e := range v.Out {
			if e.To <= v.ID {
				t.Errorf("back edge %d -> %d breaks topological order", v.ID, e.To)
			}
		}
		for _, p := range v.In {
			if p >= v.ID {
				t.Errorf("in-edge from %d to %d breaks order", p, v.ID)
			}
		}
	})
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 3, 0)
	if g.VertexCount() != 1024 {
		t.Errorf("rmat vertices = %d, want 1024", g.VertexCount())
	}
	p := Summarize(g)
	if p.E < 1024 || p.E > 8*1024 {
		t.Errorf("rmat edges = %d, out of band", p.E)
	}
	if p.DegCV < 0.8 {
		t.Errorf("rmat degree CV = %.2f, want skewed", p.DegCV)
	}
}

func TestBuildDedupsAndDropsSelfLoops(t *testing.T) {
	edges := []uint64{
		pack(1, 2), pack(1, 2), // duplicate
		pack(3, 3), // self loop
		pack(2, 4),
	}
	g := Build(5, edges, BuildOpts{Directed: true})
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2 (dedup + self-loop drop)", g.EdgeCount())
	}
}

func TestEdgeWeightsDeterministicAndPositive(t *testing.T) {
	if edgeWeight(1, 2) != edgeWeight(1, 2) {
		t.Error("weights not deterministic")
	}
	for u := int32(0); u < 50; u++ {
		w := edgeWeight(u, u+1)
		if w < 1 || w > 100 {
			t.Errorf("weight %v out of [1,100]", w)
		}
	}
}

func TestSourceTypeString(t *testing.T) {
	for st, want := range map[SourceType]string{
		SourceSocial: "social", SourceInformation: "information",
		SourceNature: "nature", SourceManMade: "man-made",
		SourceSynthetic: "synthetic", SourceType(99): "unknown",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}
