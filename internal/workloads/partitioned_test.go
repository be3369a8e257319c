package workloads

import (
	"math"
	"runtime"
	"testing"

	"github.com/graphbig/graphbig-go/internal/property"
)

// Metamorphic contract of partitioned execution (DESIGN.md §10): a
// partition plan changes only the execution schedule — which worker claims
// which vertex, and when cut-edge relaxations travel — never the results.
// Every per-VertexID property must be byte-identical between the flat
// engine and partitioned execution at any partition count. These tests run
// the same 8 workloads as the order-invariance suite at k in {1, 2, 7,
// GOMAXPROCS} against the flat baseline.
//
// Only BFS, CComp and SPathDelta actually dispatch to the partitioned
// kernels today; the remaining workloads must tolerate a partitioned view
// transparently (the plan rides on the view they iterate), which is
// exactly what these tests pin.

// partPropsByID runs fn on a fresh copy of the seed graph with a k-way
// partitioned view and returns field values keyed by VertexID. The run
// must leave the View as it found it.
func partPropsByID(t *testing.T, seed uint64, k int, fn runWorkload, field string, samples int) map[property.VertexID]float64 {
	t.Helper()
	g := randomGraph(seed)
	vw := g.ViewWith(property.ViewOpts{Partitions: k})
	frozen := frozenView(t, vw)
	sink, check := validateEngines(t)
	_, err := fn(g, Options{View: vw, Source: 0, Seed: int64(seed), Samples: samples, engineSink: sink})
	if err != nil {
		t.Fatalf("seed %d k %d: %v", seed, k, err)
	}
	check()
	frozen()
	slot := g.Schema().MustField(field)
	out := make(map[property.VertexID]float64, vw.Len())
	for _, v := range vw.Verts {
		out[v.ID] = v.Prop(slot)
	}
	return out
}

func partitionCounts() []int {
	ks := []int{1, 2, 7}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 7 {
		ks = append(ks, p)
	}
	return ks
}

func TestPartitionInvarianceExact(t *testing.T) {
	cases := []struct {
		name  string
		fn    runWorkload
		field string
	}{
		{"BFS", BFS, BFSLevelField},
		{"BFSDirOpt", BFSDirOpt, BFSLevelField},
		{"SPathDelta", SPathDelta, SPathDistField},
		{"GColor", GColor, ColorField},
		{"DCentr", DCentr, DCentrField},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				base := propsByID(t, seed, nil, tc.fn, tc.field, 0)
				for _, k := range partitionCounts() {
					got := partPropsByID(t, seed, k, tc.fn, tc.field, 0)
					if len(got) != len(base) {
						t.Fatalf("seed %d k %d: %d results, want %d", seed, k, len(got), len(base))
					}
					for id, want := range base {
						if math.Float64bits(got[id]) != math.Float64bits(want) {
							t.Fatalf("seed %d k %d: vertex %d = %v, want %v",
								seed, k, id, got[id], want)
						}
					}
				}
			}
		})
	}
}

func TestPartitionInvarianceComponents(t *testing.T) {
	cases := []struct {
		name  string
		fn    runWorkload
		field string
	}{
		{"CComp", CComp, CCompField},
		{"CCompLP", CCompLP, CCompField},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				base := canonLabels(propsByID(t, seed, nil, tc.fn, tc.field, 0))
				for _, k := range partitionCounts() {
					got := canonLabels(partPropsByID(t, seed, k, tc.fn, tc.field, 0))
					for id, want := range base {
						if got[id] != want {
							t.Fatalf("seed %d k %d: component of %d = %v, want %v",
								seed, k, id, got[id], want)
						}
					}
				}
			}
		})
	}
}

func TestPartitionInvarianceBCentr(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		base := propsByID(t, seed, nil, BCentr, BCentrField, 64)
		for _, k := range partitionCounts() {
			got := partPropsByID(t, seed, k, BCentr, BCentrField, 64)
			for id, want := range base {
				if math.Abs(got[id]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("seed %d k %d: bcentr of %d = %v, want %v",
						seed, k, id, got[id], want)
				}
			}
		}
	}
}

// TestPartitionedStatsSurface pins the boundary-traffic counters the bench
// records consume: a multi-partition run on a connected graph must report
// the plan shape and nonzero traffic for BFS, CComp and SPathDelta.
func TestPartitionedStatsSurface(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   runWorkload
	}{
		{"BFS", BFS},
		{"CComp", CComp},
		{"SPathDelta", SPathDelta},
	} {
		g := randomGraph(3)
		res, err := tc.fn(g, Options{View: g.ViewWith(property.ViewOpts{Partitions: 4})})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, key := range []string{"partitions", "supersteps", "boundary_sent", "cut_edges", "boundary_verts"} {
			if _, ok := res.Stats[key]; !ok {
				t.Errorf("%s: stats missing %q: %v", tc.name, key, res.Stats)
			}
		}
		if res.Stats["partitions"] != 4 {
			t.Errorf("%s: partitions = %v, want 4", tc.name, res.Stats["partitions"])
		}
		if res.Stats["supersteps"] < 1 {
			t.Errorf("%s: supersteps = %v, want >= 1", tc.name, res.Stats["supersteps"])
		}
		if res.Stats["cut_edges"] > 0 && res.Stats["boundary_sent"] == 0 {
			t.Errorf("%s: cut edges present but no boundary traffic", tc.name)
		}
	}
}
