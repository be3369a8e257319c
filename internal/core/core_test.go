package core

import (
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

func TestRegistryShape(t *testing.T) {
	if len(Workloads) != 13 {
		t.Fatalf("registry has %d workloads, want 13 (Table 4)", len(Workloads))
	}
	if got := len(CPUNames()); got != 13 {
		t.Errorf("CPU workloads = %d, want 13", got)
	}
	gpu := GPUNames()
	if len(gpu) != 8 {
		t.Fatalf("GPU workloads = %d, want 8 (Table 3)", len(gpu))
	}
	wantGPU := map[string]bool{
		"BFS": true, "SPath": true, "kCore": true, "CComp": true,
		"GColor": true, "TC": true, "DCentr": true, "BCentr": true,
	}
	for _, n := range gpu {
		if !wantGPU[n] {
			t.Errorf("unexpected GPU workload %s", n)
		}
	}
	// The extensions are the two kernels an experiment reads.
	var ext []string
	for _, w := range Extensions {
		ext = append(ext, w.Name)
		if w.GPU() || w.NeedsBayes || w.Mutates {
			t.Errorf("%s: GPU %v, Bayes %v, mutates %v; want a CPU graph kernel", w.Name, w.GPU(), w.NeedsBayes, w.Mutates)
		}
	}
	if want := []string{"BFSDirOpt", "SPathDelta"}; !slices.Equal(ext, want) {
		t.Errorf("extensions %v, want %v", ext, want)
	}
}

func TestComputationTypeMembership(t *testing.T) {
	want := map[string]ComputationType{
		"BFS": CompStruct, "DFS": CompStruct, "SPath": CompStruct,
		"kCore": CompStruct, "CComp": CompStruct, "GColor": CompStruct,
		"DCentr": CompStruct, "BCentr": CompStruct,
		"TC": CompProp, "Gibbs": CompProp,
		"GCons": CompDyn, "GUp": CompDyn, "TMorph": CompDyn,
	}
	for _, w := range Workloads {
		if want[w.Name] != w.Type {
			t.Errorf("%s type = %v, want %v", w.Name, w.Type, want[w.Name])
		}
	}
	for _, ct := range []ComputationType{CompStruct, CompProp, CompDyn} {
		if len(ByType(ct)) == 0 {
			t.Errorf("no workloads of type %v", ct)
		}
	}
	if len(ByType(CompStruct))+len(ByType(CompProp))+len(ByType(CompDyn)) != 13 {
		t.Error("types do not partition the registry")
	}
}

func TestCategoriesCoverTable4(t *testing.T) {
	counts := map[Category]int{}
	for _, w := range Workloads {
		counts[w.Category]++
	}
	if counts[CatTraversal] != 2 || counts[CatUpdate] != 3 ||
		counts[CatAnalytics] != 6 || counts[CatSocial] != 2 {
		t.Errorf("category counts = %v", counts)
	}
}

func TestTaxonomyTables(t *testing.T) {
	if len(ComputationTypes) != 3 {
		t.Error("Table 1 must have 3 rows")
	}
	if len(DataSources) != 4 {
		t.Error("Table 2 must have 4 rows")
	}
	if len(UseCaseCategories) != 6 {
		t.Error("Figure 4(B) must have 6 categories")
	}
	sum := 0
	for _, c := range UseCaseCategories {
		sum += c.Percent
	}
	if sum != 100 {
		t.Errorf("category shares sum to %d%%, want 100%%", sum)
	}
	for _, w := range Workloads {
		if UseCaseCounts[w.Name] == 0 {
			t.Errorf("no use-case count for %s", w.Name)
		}
	}
	if UseCaseCounts["BFS"] != 10 || UseCaseCounts["TC"] != 4 {
		t.Error("Figure 4(A) extremes must match the paper (BFS 10, TC 4)")
	}
	if ComputationType(9).String() != "unknown" {
		t.Error("unknown type string")
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("BFS")
	if err != nil || w.Name != "BFS" {
		t.Fatalf("ByName(BFS) = %v, %v", w, err)
	}
	for _, name := range []string{"XYZ", "CCentr", "CCompLP"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%s) should fail", name)
		}
	}
}

// TestEveryEntryRunsByName resolves every registry entry, the extensions
// included, by its name and runs its CPU implementation: the result must
// carry the entry's own name, so an entry wired to another kernel fails.
func TestEveryEntryRunsByName(t *testing.T) {
	net, err := bayes.Generate(bayes.Config{Nodes: 20, Edges: 25, TargetParams: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range slices.Concat(Workloads, Extensions) {
		t.Run(entry.Name, func(t *testing.T) {
			w, err := ByName(entry.Name)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &RunContext{Graph: smallGraph(t), Opt: workloads.Options{Samples: 2}}
			if w.NeedsBayes {
				ctx = &RunContext{Bayes: net, Opt: workloads.Options{Samples: 2}}
			}
			res, err := w.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if w.Name != entry.Name || res.Workload != entry.Name {
				t.Errorf("ByName(%s) is %s and runs %s", entry.Name, w.Name, res.Workload)
			}
		})
	}
}

func smallGraph(t *testing.T) *property.Graph {
	t.Helper()
	g := property.New(property.Options{})
	for i := property.VertexID(0); i < 4; i++ {
		g.AddVertex(i)
	}
	for _, e := range [][2]property.VertexID{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRunErrors(t *testing.T) {
	bfs, _ := ByName("BFS")
	if _, err := bfs.Run(&RunContext{}); err == nil {
		t.Error("BFS without graph should fail")
	}
	gibbs, _ := ByName("Gibbs")
	if _, err := gibbs.Run(&RunContext{Graph: smallGraph(t)}); err == nil {
		t.Error("Gibbs without bayes net should fail")
	}
	net, _ := bayes.Generate(bayes.Config{Nodes: 20, Edges: 25, TargetParams: 400, Seed: 1})
	if _, err := gibbs.Run(&RunContext{Bayes: net, Opt: workloads.Options{Samples: 2}}); err != nil {
		t.Errorf("Gibbs with net failed: %v", err)
	}
	dfs, _ := ByName("DFS")
	if _, err := dfs.RunGPU(nil, nil); err == nil {
		t.Error("DFS has no GPU implementation; RunGPU should fail")
	}
}

// TestComputationTypeNames pins the names the figures print, an unknown
// value included.
func TestComputationTypeNames(t *testing.T) {
	for c, want := range map[ComputationType]string{CompStruct: "CompStruct", CompProp: "CompProp", CompDyn: "CompDyn", 9: "unknown"} {
		if got := c.String(); got != want {
			t.Errorf("ComputationType(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}
