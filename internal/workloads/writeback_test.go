package workloads

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/property"
)

// TestNativeWriteBackOverStaleField: every native kernel that hands its
// result array back through property.SetColumn must leave its field holding
// exactly what the framework walk of an instrumented twin stores, bit for
// bit, on every vertex of the View, whatever the field held before. The
// native graph's field starts out holding a NaN sentinel on every vertex,
// so a skipped segment, an unreached vertex whose -1 or +Inf was not
// written, or a subset write shows as a mismatch. SPathDelta's oracle is
// the instrumented Dijkstra, so its shared write-back is not its own judge.
//
// The graphs cover the View shapes the column writer sees: ID-ordered over
// generated rows (a few segments per chunk), a cluster-ordered View with a
// 2-way plan (up to a segment per vertex), and a View
// taken after deletions (a segment break at every dead row).
func TestNativeWriteBackOverStaleField(t *testing.T) {
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	graphs := []struct {
		name  string
		build func(t *testing.T) (*property.Graph, *property.View)
	}{
		{"ldbc", func(t *testing.T) (*property.Graph, *property.View) {
			g := gen.LDBC(1500, 42, 1)
			return g, g.View()
		}},
		{"road", func(t *testing.T) (*property.Graph, *property.View) {
			g := gen.Road(2200, 42, 1)
			return g, g.View()
		}},
		{"ldbc, cluster order, 2 partitions", func(t *testing.T) (*property.Graph, *property.View) {
			g := gen.LDBC(1500, 42, 1)
			return g, g.ViewWith(property.ViewOpts{Order: order.Cluster, Partitions: 2})
		}},
		{"road with deletions", func(t *testing.T) (*property.Graph, *property.View) {
			g := gen.Road(2200, 42, 1)
			vw := g.View()
			for i := 3; i < vw.Len(); i += 7 {
				if _, err := g.DeleteVertex(vw.Verts[i].ID); err != nil {
					t.Fatal(err)
				}
			}
			return g, g.View()
		}},
	}
	kernels := []struct {
		name, field    string
		native, oracle runWorkload
	}{
		{"BFS", BFSLevelField, BFS, BFS},
		{"BFSDirOpt", BFSLevelField, BFSDirOpt, BFSDirOpt},
		{"CComp", CCompField, CComp, CComp},
		{"SPath", SPathDistField, SPath, SPath},
		{"SPathDelta", SPathDistField, SPathDelta, SPath},
		{"GColor", ColorField, GColor, GColor},
		{"BCentr", BCentrField, BCentr, BCentr},
		{"kCore", KCoreField, KCore, KCore},
		{"DCentr", DCentrField, DCentr, DCentr},
	}
	for _, gc := range graphs {
		for _, k := range kernels {
			t.Run(gc.name+"/"+k.name, func(t *testing.T) {
				g, vw := gc.build(t)
				twin, twinView := gc.build(t)
				src := vw.Verts[vw.Len()/3].ID

				field := g.EnsureField(k.field)
				for _, v := range vw.Verts {
					v.SetPropRaw(field, sentinel)
				}
				// Samples bounds BCentr's sources; the other kernels ignore it.
				if _, err := k.native(g, Options{View: vw, Source: src, Samples: 2, Workers: 2}); err != nil {
					t.Fatal(err)
				}

				twin.SetTracker(mem.NewCounting())
				if _, err := k.oracle(twin, Options{View: twinView, Source: src, Samples: 2}); err != nil {
					t.Fatalf("instrumented: %v", err)
				}
				twinField := twin.Schema().MustField(k.field)

				for i, v := range vw.Verts {
					got := math.Float64bits(v.Prop(field))
					want := math.Float64bits(twinView.Verts[i].Prop(twinField))
					if got != want {
						t.Fatalf("vertex %d (ID %d) holds %v (%#x), the framework walk stores %v (%#x)",
							i, v.ID, v.Prop(field), got, twinView.Verts[i].Prop(twinField), want)
					}
				}
			})
		}
	}
}

// TestBFSAndCCompWriteBackConcurrently runs native BFS and CComp at the same
// time on one View, several times over, so `go test -race` sees their
// column write-backs into two fields of the same chunks overlap; each field
// must end as a run alone leaves it.
func TestBFSAndCCompWriteBackConcurrently(t *testing.T) {
	g := gen.LDBC(1500, 42, 1)
	vw := g.View()
	src := vw.Verts[0].ID
	lvl, lbl := g.EnsureField(BFSLevelField), g.EnsureField(CCompField)
	snapshot := func(slot int) []float64 {
		out := make([]float64, vw.Len())
		for i, v := range vw.Verts {
			out[i] = v.Prop(slot)
		}
		return out
	}
	for _, run := range []runWorkload{BFS, CComp} {
		if _, err := run(g, Options{View: vw, Source: src, Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	wantLvl, wantLbl := snapshot(lvl), snapshot(lbl)

	const rounds = 4
	var wg sync.WaitGroup
	for _, run := range []runWorkload{BFS, CComp} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := run(g, Options{View: vw, Source: src, Workers: 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(snapshot(lvl), wantLvl) || !slices.Equal(snapshot(lbl), wantLbl) {
		t.Fatal("concurrent BFS and CComp left their fields differing from a run alone")
	}
}
