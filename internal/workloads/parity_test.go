package workloads

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

// The engine-parity suite pins every frontier workload's observable outcome
// against golden values captured from the pre-engine (hand-rolled loop)
// implementations, on all five generated datasets at small scale:
//
//   - native mode (Workers=4): Result.Visited and Result.Checksum
//   - instrumented mode: Visited/Checksum plus the complete mem.Counting
//     event totals (instructions by class, loads, stores, branches), which
//     is what Figures 1 and 5-9 are computed from
//
// The golden file is testdata/parity.json. Regenerate it only when an
// intentional behaviour change is made:
//
//	GRAPHBIG_UPDATE_PARITY=1 go test ./internal/workloads -run TestEngineParity
type parityRecord struct {
	Visited  int64   `json:"visited"`
	Checksum float64 `json:"checksum"`
	Insts    uint64  `json:"insts,omitempty"`
	InstsFw  uint64  `json:"insts_fw,omitempty"`
	Loads    uint64  `json:"loads,omitempty"`
	Stores   uint64  `json:"stores,omitempty"`
	Branches uint64  `json:"branches,omitempty"`
}

var parityDatasets = []struct {
	name  string
	build func() *property.Graph
}{
	{"twitter", func() *property.Graph { return gen.Twitter(1500, 42, 0) }},
	{"knowledge", func() *property.Graph { return gen.Knowledge(800, 42, 0) }},
	{"watson-gene", func() *property.Graph { return gen.Gene(1200, 42, 0) }},
	{"ca-road", func() *property.Graph { return gen.Road(1500, 42, 0) }},
	{"ldbc", func() *property.Graph { return gen.LDBC(1000, 42, 0) }},
}

var parityWorkloads = []struct {
	name string
	run  func(*property.Graph, Options) (*Result, error)
}{
	{"BFS", BFS},
	{"BFSDirOpt", BFSDirOpt},
	{"SPath", SPath},
	{"SPathDelta", SPathDelta},
	{"CComp", CComp},
	{"kCore", KCore},
	{"GColor", GColor},
	{"DCentr", DCentr},
	{"BCentr", BCentr},
}

const parityGolden = "testdata/parity.json"

func parityOptions() Options {
	return Options{Seed: 42, Samples: 4}
}

func runParity(t *testing.T) map[string]parityRecord {
	t.Helper()
	got := make(map[string]parityRecord)
	for _, ds := range parityDatasets {
		for _, wl := range parityWorkloads {
			// Native-parallel run on a fresh graph.
			g := ds.build()
			opt := parityOptions()
			opt.Workers = 4
			opt.View = g.View()
			res, err := wl.run(g, opt)
			if err != nil {
				t.Fatalf("%s on %s (native): %v", wl.name, ds.name, err)
			}
			got[ds.name+"|"+wl.name+"|native"] = parityRecord{
				Visited:  res.Visited,
				Checksum: res.Checksum,
			}

			// Instrumented run: view built before the tracker is installed
			// (harness ordering), then every event counted.
			g = ds.build()
			opt = parityOptions()
			opt.View = g.View()
			c := mem.NewCounting()
			g.SetTracker(c)
			res, err = wl.run(g, opt)
			g.SetTracker(nil)
			if err != nil {
				t.Fatalf("%s on %s (instrumented): %v", wl.name, ds.name, err)
			}
			got[ds.name+"|"+wl.name+"|instrumented"] = parityRecord{
				Visited:  res.Visited,
				Checksum: res.Checksum,
				Insts:    c.Insts[mem.ClassUser],
				InstsFw:  c.Insts[mem.ClassFramework],
				Loads:    c.Loads[mem.ClassUser] + c.Loads[mem.ClassFramework],
				Stores:   c.Stores[mem.ClassUser] + c.Stores[mem.ClassFramework],
				Branches: c.Branches[mem.ClassUser] + c.Branches[mem.ClassFramework],
			}
		}
	}
	return got
}

func TestEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep is not a -short test")
	}
	got := runParity(t)

	if os.Getenv("GRAPHBIG_UPDATE_PARITY") != "" {
		if err := os.MkdirAll(filepath.Dir(parityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d parity records to %s", len(got), parityGolden)
		return
	}

	data, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with GRAPHBIG_UPDATE_PARITY=1 to record): %v", err)
	}
	var want map[string]parityRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d records, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from run", key)
			continue
		}
		if g != w {
			t.Errorf("%s:\n  got  %s\n  want %s", key, parityString(g), parityString(w))
		}
	}
}

func parityString(r parityRecord) string {
	return fmt.Sprintf("visited=%d checksum=%v insts=%d/%d loads=%d stores=%d branches=%d",
		r.Visited, r.Checksum, r.Insts, r.InstsFw, r.Loads, r.Stores, r.Branches)
}

// TestNativeMatchesInstrumented holds every frontier workload's native
// result to its instrumented twin's on all five datasets, away from the
// golden file's inputs: another seed, a source in the middle of the View
// and an odd worker count. The tracker only observes, so Visited and the
// checksum must agree bit for bit, and the tracker must have seen
// framework events.
func TestNativeMatchesInstrumented(t *testing.T) {
	datasets := []struct {
		name  string
		build func() *property.Graph
	}{
		{"twitter", func() *property.Graph { return gen.Twitter(900, 7, 0) }},
		{"knowledge", func() *property.Graph { return gen.Knowledge(600, 7, 0) }},
		{"watson-gene", func() *property.Graph { return gen.Gene(700, 7, 0) }},
		{"ca-road", func() *property.Graph { return gen.Road(900, 7, 0) }},
		{"ldbc", func() *property.Graph { return gen.LDBC(700, 7, 0) }},
	}
	for _, ds := range datasets {
		for _, wl := range parityWorkloads {
			t.Run(ds.name+"/"+wl.name, func(t *testing.T) {
				g := ds.build()
				vw := g.View()
				src := vw.Verts[vw.Len()/2].ID
				native, err := wl.run(g, Options{View: vw, Source: src, Seed: 7, Samples: 3, Workers: 3})
				if err != nil {
					t.Fatalf("native: %v", err)
				}

				twin := ds.build()
				twinView := twin.View()
				c := mem.NewCounting()
				twin.SetTracker(c)
				inst, err := wl.run(twin, Options{View: twinView, Source: src, Seed: 7, Samples: 3})
				twin.SetTracker(nil)
				if err != nil {
					t.Fatalf("instrumented: %v", err)
				}
				if native.Visited != inst.Visited || math.Float64bits(native.Checksum) != math.Float64bits(inst.Checksum) {
					t.Errorf("native visited=%d checksum=%v, instrumented visited=%d checksum=%v",
						native.Visited, native.Checksum, inst.Visited, inst.Checksum)
				}
				if c.Insts[mem.ClassFramework] == 0 || c.Loads[mem.ClassFramework] == 0 {
					t.Errorf("tracker saw %d framework insts and %d framework loads",
						c.Insts[mem.ClassFramework], c.Loads[mem.ClassFramework])
				}
			})
		}
	}
}
