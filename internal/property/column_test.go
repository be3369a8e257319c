package property_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/property"
)

// columnLayout builds a graph of n vertices and the View a column is written
// through. all is every vertex the graph ever held, deleted ones included,
// in an order fixed by the layout and n. Every build is a function of n, so
// two builds are twins: the same rows of the same-shaped chunks, and the
// same View.
type columnLayout struct {
	name  string
	build func(t *testing.T, n int) (g *property.Graph, all []*property.Vertex, vw *property.View)
}

// columnEdges returns 2n edges over dense indices, a function of n.
func columnEdges(n int) [][2]int {
	rng := rand.New(rand.NewPCG(uint64(n), 11))
	var es [][2]int
	for i := 0; i < 2*n; i++ {
		es = append(es, [2]int{i % n, rng.IntN(n)})
	}
	return es
}

// bulkColumnGraph interns ids in the order given, so vertex i of ids takes
// row i%1024 of chunk i/1024, and adds columnEdges between them.
func bulkColumnGraph(ids []property.VertexID) *property.Graph {
	var el property.EdgeList
	for _, id := range ids {
		el.Intern(id)
	}
	for _, e := range columnEdges(len(ids)) {
		el.Add(narrow.Index32(e[0]), narrow.Index32(e[1]), 1)
	}
	return property.Bulk(property.Options{}, &el, 2)
}

func ascendingIDs(n int) []property.VertexID {
	ids := make([]property.VertexID, n)
	for i := range ids {
		ids[i] = property.VertexID(i)
	}
	return ids
}

func shuffledIDs(n int) []property.VertexID {
	rng := rand.New(rand.NewPCG(uint64(n), 13))
	ids := make([]property.VertexID, n)
	for i, p := range rng.Perm(n) {
		ids[i] = property.VertexID(3 * p)
	}
	return ids
}

// deleteEveryFifth deletes the vertices at positions 0, 5, 10, ... of vw.
func deleteEveryFifth(t *testing.T, g *property.Graph, vw *property.View) {
	t.Helper()
	for i := 0; i < vw.Len(); i += 5 {
		if _, err := g.DeleteVertex(vw.Verts[i].ID); err != nil {
			t.Fatal(err)
		}
	}
}

var columnLayouts = []columnLayout{
	{"bulk", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		g := bulkColumnGraph(ascendingIDs(n))
		vw := g.View()
		// Rows follow IDs: one segment per chunk.
		if got, want := property.Segments(vw), (n+1023)/1024; got != want {
			t.Fatalf("ID-ordered View of a bulk-built graph has %d segments, want %d", got, want)
		}
		return g, vw.Verts, vw
	}},
	{"loader", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		if n == 0 {
			// The loader refuses a file with no edges.
			g := bulkColumnGraph(nil)
			vw := g.View()
			return g, vw.Verts, vw
		}
		ids := shuffledIDs(n)
		var sb strings.Builder
		for _, e := range columnEdges(n) {
			fmt.Fprintf(&sb, "%d %d\n", ids[e[0]], ids[e[1]])
		}
		g, err := loader.ReadSNAP(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		vw := g.View()
		return g, vw.Verts, vw
	}},
	{"clone", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		g := property.Clone(bulkColumnGraph(shuffledIDs(n)))
		vw := g.View()
		return g, vw.Verts, vw
	}},
	{"incremental", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		g := property.New(property.Options{})
		ids := shuffledIDs(n)
		for _, id := range ids {
			if _, added := g.AddVertex(id); !added {
				t.Fatalf("ID %d added twice", id)
			}
		}
		for _, e := range columnEdges(n) {
			if err := g.AddEdge(ids[e[0]], ids[e[1]], 1); err != nil {
				t.Fatal(err)
			}
		}
		vw := g.View()
		return g, vw.Verts, vw
	}},
	{"cluster order, 2 partitions", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		g := bulkColumnGraph(ascendingIDs(n))
		vw := g.ViewWith(property.ViewOpts{Order: order.Cluster, Partitions: 2})
		return g, vw.Verts, vw
	}},
	{"deletions, stale View", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		// Rows are never reused: through a View taken before the deletions
		// a column write lands in the dead vertices' rows.
		g := bulkColumnGraph(shuffledIDs(n))
		vw := g.View()
		deleteEveryFifth(t, g, vw)
		return g, vw.Verts, vw
	}},
	{"deletions, fresh View", func(t *testing.T, n int) (*property.Graph, []*property.Vertex, *property.View) {
		g := bulkColumnGraph(ascendingIDs(n))
		all := g.View().Verts
		deleteEveryFifth(t, g, g.View())
		return g, all, g.View()
	}},
}

// columnValues returns n values drawn from the edge cases of T's conversion
// to float64 and from random ones.
func columnValues[T int32 | int64 | float64](rng *rand.Rand, n int, special []T, random func() T) []T {
	vals := make([]T, n)
	for i := range vals {
		if rng.IntN(2) == 0 {
			vals[i] = special[rng.IntN(len(special))]
		} else {
			vals[i] = random()
		}
	}
	return vals
}

var (
	specialInt32 = []int32{-1, 0, 1, math.MaxInt32, math.MinInt32}
	specialInt64 = []int64{-1, 0, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	specialFloat = []float64{
		-1, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_0000_0000_0123), // negative NaN with a payload
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
)

// writeTwins writes vals into field slot of a through SetColumn and of b
// through a SetPropRaw loop over its View.
func writeTwins[T int32 | int64 | float64](a, b *property.View, slot int, vals []T) {
	property.SetColumn(a, slot, vals)
	for i, v := range b.Verts {
		v.SetPropRaw(slot, float64(vals[i]))
	}
}

// TestSetColumnMatchesSetPropRaw is the column writer's differential test:
// on twin graphs of every layout the storage produces, SetColumn and a
// per-vertex SetPropRaw loop over the same View leave every field of every
// vertex with the same bits, and the same columns allocated. The fields are
// never written before their first column write, so SetColumn allocates
// them; one is written again.
func TestSetColumnMatchesSetPropRaw(t *testing.T) {
	for _, l := range columnLayouts {
		for _, n := range []int{0, 1, 1023, 1024, 1025, 3000} {
			t.Run(fmt.Sprintf("%s/n=%d", l.name, n), func(t *testing.T) {
				ga, allA, vwA := l.build(t, n)
				gb, allB, vwB := l.build(t, n)
				if len(allA) != len(allB) || vwA.Len() != vwB.Len() {
					t.Fatalf("twins differ: %d/%d vertices, Views of %d/%d", len(allA), len(allB), vwA.Len(), vwB.Len())
				}
				var slots [3]int
				for k, name := range []string{"i32", "i64", "f64"} {
					slots[k] = ga.EnsureField(name)
					if gb.EnsureField(name) != slots[k] {
						t.Fatal("twins' schemas differ")
					}
				}
				rng := rand.New(rand.NewPCG(uint64(n), 17))
				m := vwA.Len()
				i32 := func() int32 { return rng.Int32() - math.MaxInt32/2 }
				writeTwins(vwA, vwB, slots[0], columnValues(rng, m, specialInt32, i32))
				writeTwins(vwA, vwB, slots[1], columnValues(rng, m, specialInt64, func() int64 { return int64(rng.Uint64()) }))
				writeTwins(vwA, vwB, slots[2], columnValues(rng, m, specialFloat, func() float64 { return math.Float64frombits(rng.Uint64()) }))
				writeTwins(vwA, vwB, slots[0], columnValues(rng, m, specialInt32, i32))

				fields := ga.Schema().NumFields()
				for i, a := range allA {
					b := allB[i]
					if a.ID != b.ID {
						t.Fatalf("vertex %d: twins hold IDs %d and %d", i, a.ID, b.ID)
					}
					for slot := 0; slot < fields; slot++ {
						if x, y := math.Float64bits(a.Prop(slot)), math.Float64bits(b.Prop(slot)); x != y {
							t.Fatalf("vertex %d (ID %d) field %d: SetColumn stored %#x, SetPropRaw %#x", i, a.ID, slot, x, y)
						}
						if property.HasColumn(a, slot) != property.HasColumn(b, slot) {
							t.Fatalf("vertex %d (ID %d) field %d: column allocated %v by SetColumn, %v by SetPropRaw",
								i, a.ID, slot, property.HasColumn(a, slot), property.HasColumn(b, slot))
						}
					}
				}
			})
		}
	}
}

// TestSetColumnRejectsWrongLength: a column of any other length than the
// View's is a programming error, reported with both lengths.
func TestSetColumnRejectsWrongLength(t *testing.T) {
	g := bulkColumnGraph(ascendingIDs(10))
	vw := g.View()
	slot := g.EnsureField("x")
	for _, k := range []int{0, 9, 11} {
		func() {
			defer func() {
				want := fmt.Sprintf("property: SetColumn got %d values for a View of 10 vertices", k)
				if r := recover(); r != want {
					t.Errorf("SetColumn of %d values panicked with %v, want %q", k, r, want)
				}
			}()
			property.SetColumn(vw, slot, make([]float64, k))
		}()
	}
}
