package workloads

import (
	"math"
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/property"
)

// The ordering layer's remap contract (DESIGN.md §8): a locality
// permutation changes only the dense index space a workload iterates, so
// every per-VertexID result must be byte-identical across -order settings.
// These metamorphic tests run each frontier workload under none/degree/
// hub/rcm on random graphs and compare the per-ID property values bit for
// bit (component labels are canonicalized first — the label value is an
// index in discovery order, but co-membership is what the workload
// defines; BCentr compares within tolerance since its float accumulation
// order over sources differs).

type runWorkload func(g *property.Graph, opt Options) (*Result, error)

// frozenView snapshots the View's adjacency arrays and vertex order and
// returns a check that they are bit-identical after a run. The View is
// published memory: a scratch buffer the engine recycles between phases
// (Engine.sparse) must never be one of its arrays, or the next phase's
// writes land in the graph every later run reads.
func frozenView(t *testing.T, vw *property.View) func() {
	t.Helper()
	verts := slices.Clone(vw.Verts)
	nbrOff, nbr, inOff, inNbr := slices.Clone(vw.NbrOff), slices.Clone(vw.Nbr), slices.Clone(vw.InOff), slices.Clone(vw.InNbr)
	nbrW := slices.Clone(vw.NbrW)
	return func() {
		t.Helper()
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for _, c := range []struct {
			name string
			same bool
		}{
			{"Verts", slices.Equal(vw.Verts, verts)},
			{"NbrOff", slices.Equal(vw.NbrOff, nbrOff)},
			{"Nbr", slices.Equal(vw.Nbr, nbr)},
			{"NbrW", slices.EqualFunc(vw.NbrW, nbrW, sameBits)},
			{"InOff", slices.Equal(vw.InOff, inOff)},
			{"InNbr", slices.Equal(vw.InNbr, inNbr)},
		} {
			if !c.same {
				t.Fatalf("the run changed the View's %s", c.name)
			}
		}
	}
}

// propsByID runs fn on a fresh copy of the seed graph viewed under ord and
// returns field values keyed by VertexID. The run must leave the View as
// it found it.
func propsByID(t *testing.T, seed uint64, ord property.OrderFunc, fn runWorkload, field string, samples int) map[property.VertexID]float64 {
	t.Helper()
	g := randomGraph(seed)
	vw := g.ViewWith(property.ViewOpts{Order: ord})
	frozen := frozenView(t, vw)
	_, err := fn(g, Options{View: vw, Source: 0, Seed: int64(seed), Samples: samples})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	frozen()
	slot := g.Schema().MustField(field)
	out := make(map[property.VertexID]float64, vw.Len())
	for _, v := range vw.Verts {
		out[v.ID] = v.Prop(slot)
	}
	return out
}

// canonLabels rewrites component labels to the minimum VertexID of each
// component, the order-independent canonical form.
func canonLabels(m map[property.VertexID]float64) map[property.VertexID]float64 {
	rep := make(map[float64]property.VertexID)
	for id, l := range m {
		if r, ok := rep[l]; !ok || id < r {
			rep[l] = id
		}
	}
	out := make(map[property.VertexID]float64, len(m))
	for id, l := range m {
		out[id] = float64(rep[l])
	}
	return out
}

func orderStrategies(t *testing.T) map[string]property.OrderFunc {
	t.Helper()
	m := make(map[string]property.OrderFunc)
	for _, name := range order.Names[1:] {
		fn, err := order.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m[name] = fn
	}
	return m
}

func TestOrderInvarianceExact(t *testing.T) {
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
			for seed := uint64(1); seed <= 12; seed++ {
				base := propsByID(t, seed, nil, tc.fn, tc.field, 0)
				for oname, ord := range orderStrategies(t) {
					got := propsByID(t, seed, ord, tc.fn, tc.field, 0)
					if len(got) != len(base) {
						t.Fatalf("seed %d order %s: %d results, want %d", seed, oname, len(got), len(base))
					}
					for id, want := range base {
						if math.Float64bits(got[id]) != math.Float64bits(want) {
							t.Fatalf("seed %d order %s: vertex %d = %v, want %v",
								seed, oname, id, got[id], want)
						}
					}
				}
			}
		})
	}
}

func TestOrderInvarianceComponents(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		base := canonLabels(propsByID(t, seed, nil, CComp, CCompField, 0))
		for oname, ord := range orderStrategies(t) {
			got := canonLabels(propsByID(t, seed, ord, CComp, CCompField, 0))
			for id, want := range base {
				if got[id] != want {
					t.Fatalf("seed %d order %s: component of %d = %v, want %v",
						seed, oname, id, got[id], want)
				}
			}
		}
	}
}

func TestOrderInvarianceBCentr(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		// Samples >= n makes the source set exhaustive, so only float
		// accumulation order differs between orderings.
		base := propsByID(t, seed, nil, BCentr, BCentrField, 64)
		for oname, ord := range orderStrategies(t) {
			got := propsByID(t, seed, ord, BCentr, BCentrField, 64)
			for id, want := range base {
				if math.Abs(got[id]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("seed %d order %s: bcentr of %d = %v, want %v",
						seed, oname, id, got[id], want)
				}
			}
		}
	}
}
