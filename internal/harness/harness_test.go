package harness

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// tinySession keeps harness tests fast: ~1K-vertex datasets.
func tinySession() *Session {
	cfg := DefaultConfig()
	cfg.Scale = 0.001
	return NewSession(cfg)
}

func TestSessionCachesDatasets(t *testing.T) {
	s := tinySession()
	a, err := s.Graph("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Graph("ldbc")
	if a != b {
		t.Error("dataset not cached")
	}
	if _, err := s.Graph("bogus"); err == nil {
		t.Error("unknown dataset should fail")
	}
	v1, _ := s.View("ldbc")
	v2, _ := s.View("ldbc")
	if v1 != v2 {
		t.Error("view not cached")
	}
	c1, _ := s.CSR("ldbc")
	c2, _ := s.CSR("ldbc")
	if c1 != c2 {
		t.Error("CSR not cached")
	}
}

func TestScaledCaches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.001
	s := NewSession(cfg)
	if s.Cfg.GPU.L2Bytes != 64<<10 {
		t.Errorf("GPU L2 = %d, want 64KiB floor", s.Cfg.GPU.L2Bytes)
	}
	if s.Cfg.Machine.L3.SizeBytes != 1536<<10 {
		t.Errorf("CPU L3 = %d, want 1.5MiB floor", s.Cfg.Machine.L3.SizeBytes)
	}
	cfg = DefaultConfig()
	cfg.Scale = 1
	s = NewSession(cfg)
	if s.Cfg.GPU.L2Bytes != 1536<<10 || s.Cfg.Machine.L3.SizeBytes != 24<<20 {
		t.Error("paper scale must keep paper-sized caches")
	}
}

// cpuMetricsOK is a tiny consistency gate on a profile.
func cpuMetricsOK(m perfmon.Metrics) bool {
	return m.Insts > 0 && m.TotalCycles > 0 && m.IPC > 0
}

func TestMutatingWorkloadsDontCorruptCache(t *testing.T) {
	s := tinySession()
	g, _ := s.Graph("ldbc")
	v0, e0 := g.VertexCount(), g.EdgeCount()
	if _, err := s.Profile("GUp", "ldbc"); err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != v0 || g.EdgeCount() != e0 {
		t.Error("GUp mutated the cached dataset (should run on a clone)")
	}
}

func TestByIDAndOrder(t *testing.T) {
	for _, e := range Experiments {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) failed: %v", e.ID, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
	// One experiment per paper artifact (11 figures/tables + fig4), the
	// NDP, size-sweep, ordering-locality, and partitioned-placement
	// extensions, and the ablations.
	if len(Experiments) != 17 {
		t.Errorf("experiments = %d, want 17", len(Experiments))
	}
}

func TestExt01NDPFavorsCompStruct(t *testing.T) {
	// NDP only pays off once the working set exceeds the host LLC, so
	// this test needs a footprint beyond the scaled cache (the tiny
	// session's graphs are LLC-resident and the host rightly wins there).
	cfg := DefaultConfig()
	cfg.Scale = 0.005
	s := NewSession(cfg)
	// ext01's cell: the sweep's host profile over the NDP model's cost.
	speedup := func(name string) float64 {
		host, err := s.Profile(name, "ldbc")
		if err != nil {
			t.Fatal(err)
		}
		near, err := s.ndpCycles(name)
		if err != nil {
			t.Fatal(err)
		}
		if near == 0 {
			t.Fatalf("%s: NDP model costed no cycles", name)
		}
		return float64(host.TotalCycles) / float64(near)
	}
	bfs, gibbs := speedup("BFS"), speedup("Gibbs")
	if bfs <= 1 {
		t.Errorf("NDP should beat the host on BFS, got %.2fx", bfs)
	}
	if bfs <= gibbs {
		t.Errorf("CompStruct (BFS %.2fx) should gain more than CompProp (Gibbs %.2fx)", bfs, gibbs)
	}
}

// TestProfilesAreHistoryFree holds every CPU workload's counters on LDBC
// to one value: from a fresh session, from the session's own sweep, and
// from a run after the sweep, a CSR build and ext04 have used the same
// graph. Already at the tiny session's scale, 10 of the 13 workloads
// read differently when a run starts from wherever the last one left the
// graph's arena and schema. The fresh runs must also return a result and
// plausible counters, and Fig 8 must average the sweep into all three
// computation types.
func TestProfilesAreHistoryFree(t *testing.T) {
	used := tinySession()
	sweep, err := used.CPUSweep()
	if err != nil {
		t.Fatal(err)
	}
	groups, err := Fig8Data(used)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("Fig 8 type groups = %d, want 3", len(groups))
	}
	for _, d := range groups {
		if d.IPC <= 0 {
			t.Errorf("Fig 8 %v IPC = %v", d.Type, d.IPC)
		}
	}
	if _, err := used.CSR("ldbc"); err != nil {
		t.Fatal(err)
	}
	if _, err := Ext04PartitionPlacement(used); err != nil {
		t.Fatal(err)
	}
	for _, wl := range core.Workloads {
		fresh := tinySession()
		prof := perfmon.NewProfile(fresh.Cfg.Machine)
		res, err := fresh.run(wl, input{dataset: "ldbc"}, prof)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res == nil || res.Workload == "" {
			t.Errorf("%s missing result", wl.Name)
		}
		want := prof.Report()
		if !cpuMetricsOK(want) {
			t.Errorf("%s metrics implausible: %+v", wl.Name, want)
		}
		again, err := used.profile(wl, input{dataset: "ldbc"}, used.Cfg.Machine)
		if err != nil {
			t.Fatal(err)
		}
		if sweep[wl.Name] != want {
			t.Errorf("%s: sweep profile\n%+v\nwant (fresh session)\n%+v", wl.Name, sweep[wl.Name], want)
		}
		if again != want {
			t.Errorf("%s: profile after sweep, CSR and ext04\n%+v\nwant (fresh session)\n%+v", wl.Name, again, want)
		}
	}
}

// TestReportsAreHistoryFree is the package's one full sweep: RunAll must
// give every experiment a rendered report with rows, and every experiment
// run alone in a fresh session must print the report RunAll printed for
// it. Half the tiny scale keeps it short; at it, six reports (ext01,
// fig09-13) differed when sessions carried history between experiments.
func TestReportsAreHistoryFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.0005
	all, err := RunAll(NewSession(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Experiments) {
		t.Fatalf("got %d reports, want %d", len(all), len(Experiments))
	}
	for _, r := range all {
		if len(r.Rows) == 0 {
			t.Errorf("%s has no rows", r.ID)
		}
		if !strings.Contains(r.String(), r.Title) {
			t.Errorf("%s text rendering missing title", r.ID)
		}
		if !strings.Contains(r.Markdown(), "|") {
			t.Errorf("%s markdown rendering broken", r.ID)
		}
	}
	for i, e := range Experiments {
		alone, err := e.Run(NewSession(cfg))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if got, want := alone.String(), all[i].String(); got != want {
			t.Errorf("%s alone:\n%s\nin RunAll:\n%s", e.ID, got, want)
		}
	}
}

// TestRunsRegisterOnlyLayoutFields runs every CPU workload, extensions
// included, natively and instrumented on fresh tiny graphs, and requires
// every field a run registers to be one the session's fixed layout places
// up front. (A mutating workload's instrumented run registers on its
// clone, so only its native run is checked.)
func TestRunsRegisterOnlyLayoutFields(t *testing.T) {
	allowed := map[string]bool{property.SysIndexField: true}
	for _, f := range workloads.ResultFields {
		allowed[f] = true
	}
	s := tinySession()
	for _, wl := range append(slices.Clone(core.Workloads), core.Extensions...) {
		if wl.NeedsBayes {
			continue
		}
		for _, tracked := range []bool{false, true} {
			g := gen.LDBC(64, 1, 1)
			before := len(g.Schema().Names())
			var err error
			if tracked {
				_, err = s.run(wl, input{g: g, vw: g.View()}, mem.NewCounting())
			} else {
				_, err = wl.Run(&core.RunContext{Graph: g, Opt: workloads.Options{Seed: 1}})
			}
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			for _, f := range g.Schema().Names()[before:] {
				if !allowed[f] {
					t.Errorf("%s (tracked %v) registers field %q, which workloads.ResultFields does not list", wl.Name, tracked, f)
				}
			}
		}
	}
}

// TestAblationClaims measures every row of abl01's table and requires the
// paper's claim to hold: a regression that breaks one of the paper's
// explanations fails here.
func TestAblationClaims(t *testing.T) {
	s := tinySession()
	for _, a := range ablations {
		t.Run(a.choice+" "+a.metric, func(t *testing.T) {
			base, alt, err := a.measure(s)
			if err != nil {
				t.Fatal(err)
			}
			if !a.holds(base, alt) {
				t.Errorf("%s %.3f, %s %.3f; want alt/base %s (paper %s)",
					a.base, base, a.alt, alt, a.claim(), a.paper)
			}
		})
	}
}

func TestFig12SpeedupsPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("GPU sweep in -short mode")
	}
	s := tinySession()
	data, err := Fig12Data(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(SharedWorkloads())*len(s.DatasetNames()) {
		t.Fatalf("speedup cells = %d", len(data))
	}
	for _, d := range data {
		if d.Factor <= 0 {
			t.Errorf("%s on %s: speedup %v", d.Workload, d.Dataset, d.Factor)
		}
	}
}

func TestPaperOrderCoversAll13(t *testing.T) {
	names := paperOrder()
	if len(names) != 13 {
		t.Fatalf("paper order has %d names", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, w := range core.Workloads {
		if !seen[w.Name] {
			t.Errorf("%s missing from paper order", w.Name)
		}
	}
}

func TestSizeSweepTrend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.004
	s := NewSession(cfg)
	pts, err := s.SizeSweep("DCentr", []float64{0.25, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Vertices <= pts[0].Vertices {
		t.Error("sweep sizes not increasing")
	}
	if pts[1].L3MPKI < pts[0].L3MPKI*0.8 {
		t.Errorf("L3 MPKI should not collapse as footprint grows: %.1f -> %.1f",
			pts[0].L3MPKI, pts[1].L3MPKI)
	}
	if _, err := s.SizeSweep("Gibbs", []float64{1}); err == nil {
		t.Error("Gibbs sweep should be rejected (fixed-size input)")
	}
}

func TestReportRendering(t *testing.T) {
	r := Report{ID: "figXX", Title: "T", Headers: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Notes = append(r.Notes, "note")
	txt := r.String()
	if !strings.Contains(txt, "figXX") || !strings.Contains(txt, "note") {
		t.Errorf("text rendering: %q", txt)
	}
	if f2(1.234) != "1.23" || f3(1.2345) != "1.234" || pc1(0.5) != "50.0%" {
		t.Error("formatters wrong")
	}
}

func TestChartRendering(t *testing.T) {
	r := Report{
		ID: "figXX", Title: "T",
		Headers: []string{"workload", "mpki"},
	}
	r.AddRow("BFS", "48.77")
	r.AddRow("TC", "12.4%")
	r.AddRow("avg", "") // skipped
	c := r.Chart(1)
	if !strings.Contains(c, "BFS") || !strings.Contains(c, "#") {
		t.Errorf("chart missing bars: %q", c)
	}
	if strings.Contains(c, "avg") {
		t.Error("non-numeric row should be skipped")
	}
	if (Report{}).Chart(0) != "" {
		t.Error("empty report should render no chart")
	}
	if v, ok := parseNumeric("3.2x"); !ok || v != 3.2 {
		t.Errorf("parseNumeric(3.2x) = %v, %v", v, ok)
	}
	if _, ok := parseNumeric("n/a"); ok {
		t.Error("parseNumeric should reject non-numbers")
	}
}

// TestSessionInputSubstitution pins the -input wiring: a SNAP file
// replaces every generated dataset with one session dataset, named after
// the file, that every per-dataset cache shares.
func TestSessionInputSubstitution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.txt")
	snap := "# toy SNAP graph\n0 1 2\n1 2\n2 0 0.5\n"
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Input = path
	s := NewSession(cfg)
	a, err := s.Graph("ldbc")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.VertexCount(); got != 3 {
		t.Fatalf("loaded %d vertices, want 3", got)
	}
	b, err := s.Graph("twitter")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("input graph not shared across dataset names")
	}
	if got := s.DatasetNames(); !slices.Equal(got, []string{"toy.txt"}) {
		t.Errorf("DatasetNames() = %q, want [toy.txt]", got)
	}
	if _, err := s.Profile("BFS", "ldbc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Profile("BFS", "twitter"); err != nil {
		t.Fatal(err)
	}
	if len(s.profiles) != 1 {
		t.Errorf("BFS on two dataset names profiled %d times, want once", len(s.profiles))
	}
	r, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(SharedWorkloads()) {
		t.Errorf("fig09 on an input has %d rows, want one per workload (%d)", len(r.Rows), len(SharedWorkloads()))
	}
	for _, row := range r.Rows {
		if row[1] != "toy.txt" {
			t.Errorf("fig09 row %q names dataset %q, want toy.txt", row, row[1])
		}
	}
	bad := DefaultConfig()
	bad.Input = filepath.Join(t.TempDir(), "missing.txt")
	if _, err := NewSession(bad).Graph("ldbc"); err == nil {
		t.Error("missing input file should fail")
	}
}
