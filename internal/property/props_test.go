package property

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// idRegimes are the ID sets the storage treats differently: dense (one flat
// table), the largest ID one below and one at denseIDLimit (the last table
// Bulk makes and the first input it indexes by map), and sparse IDs up to
// 2^64-1.
var idRegimes = []struct {
	name string
	flat bool // Bulk indexes these IDs by table
	ids  func(rng *rand.Rand, n int) []VertexID
}{
	{"dense", true, func(rng *rand.Rand, n int) []VertexID {
		ids := make([]VertexID, n)
		for i, p := range rng.Perm(2 * n)[:n] {
			ids[i] = VertexID(p) // half of 0..2n-1: holes inside the table
		}
		return ids
	}},
	{"below the limit", true, func(rng *rand.Rand, n int) []VertexID {
		ids := make([]VertexID, n)
		for i := range ids {
			ids[i] = VertexID(i)
		}
		ids[n-1] = VertexID(denseIDLimit(n) - 1)
		return ids
	}},
	{"at the limit", false, func(rng *rand.Rand, n int) []VertexID {
		ids := make([]VertexID, n)
		for i := range ids {
			ids[i] = VertexID(i)
		}
		ids[n-1] = VertexID(denseIDLimit(n))
		return ids
	}},
	{"sparse", false, func(rng *rand.Rand, n int) []VertexID {
		ids := make([]VertexID, n)
		seen := map[VertexID]bool{}
		for i := range ids {
			for ids[i] = VertexID(rng.Uint64() >> rng.IntN(64)); seen[ids[i]]; ids[i]++ {
			}
			seen[ids[i]] = true
		}
		if !seen[math.MaxUint64] {
			ids[0] = math.MaxUint64
		}
		return ids
	}},
}

// TestPropStorageMatchesModel drives the property primitives at random on a
// bulk-built graph — AddVertex inside and outside the flat table, fields
// registered after construction, writes through both setters, DeleteVertex
// then AddVertex of the same ID, Clone — against one []float64 per live ID.
func TestPropStorageMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	for _, regime := range idRegimes {
		for round := 0; round < 6; round++ {
			n := 2 + rng.IntN(3*chunkRows)
			ids := regime.ids(rng, n)
			var el EdgeList
			for _, id := range ids {
				el.Intern(id)
			}
			for e := 0; e < n; e++ {
				el.Add(Index32(rng.IntN(n)), Index32(rng.IntN(n)), 1)
			}
			g := Bulk(Options{Schema: NewSchema("a", "b"), Shards: 1 << rng.IntN(5)}, &el, 1+rng.IntN(4))
			if (g.flat != nil) != regime.flat {
				t.Fatalf("%s: flat table of %d entries for %d vertices", regime.name, len(g.flat), n)
			}
			width := g.Schema().Cap()
			model := map[VertexID][]float64{}
			for _, id := range ids {
				model[id] = make([]float64, width)
			}
			// pool is where operations draw IDs from: the input's, and for
			// each its neighbours, so that holes in the table, IDs just past
			// it and IDs that were deleted all come up.
			pool := append([]VertexID(nil), ids...)
			for _, id := range ids[:min(n, 8)] {
				pool = append(pool, id+1, id-1, VertexID(len(g.flat)), VertexID(len(g.flat))+1)
			}
			check := func(when string) {
				t.Helper()
				if g.VertexCount() != len(model) {
					t.Fatalf("%s round %d, %s: %d vertices, model holds %d", regime.name, round, when, g.VertexCount(), len(model))
				}
				for _, id := range pool {
					v, want := g.FindVertex(id), model[id]
					if (v != nil) != (want != nil) {
						t.Fatalf("%s round %d, %s: FindVertex(%d) = %v, model has %v", regime.name, round, when, id, v, want)
					}
					for slot := range want {
						if got, raw := g.GetProp(v, slot), v.Prop(slot); got != want[slot] || raw != want[slot] {
							t.Fatalf("%s round %d, %s: vertex %d slot %d reads %v / %v, want %v", regime.name, round, when, id, slot, got, raw, want[slot])
						}
					}
				}
			}
			check("as built")
			for step := 0; step < 400; step++ {
				id := pool[rng.IntN(len(pool))]
				switch op := rng.IntN(20); {
				case op == 0:
					if _, err := g.DeleteVertex(id); err != nil {
						t.Fatal(err)
					}
					delete(model, id)
				case op <= 3:
					if _, added := g.AddVertex(id); added != (model[id] == nil) {
						t.Fatalf("%s: AddVertex(%d) added=%v, model has %v", regime.name, id, added, model[id])
					}
					if model[id] == nil {
						model[id] = make([]float64, width)
					}
				case op == 4 && g.Schema().NumFields() < width:
					name := fmt.Sprintf("late%d", g.Schema().NumFields())
					if slot := g.EnsureField(name); slot != g.Schema().NumFields()-1 {
						t.Fatalf("EnsureField(%s) = %d with %d fields", name, slot, g.Schema().NumFields())
					}
				case op == 5:
					c := Clone(g)
					if v := g.FindVertex(id); v != nil {
						c.FindVertex(id).SetPropRaw(0, -1)
						if got := v.Prop(0); got != model[id][0] {
							t.Fatalf("%s: a write to the clone shows in the original: %v", regime.name, got)
						}
						c.FindVertex(id).SetPropRaw(0, model[id][0])
					}
					g = c
					check(fmt.Sprintf("step %d, cloned", step))
				default:
					v := g.FindVertex(id)
					if v == nil {
						continue
					}
					slot, x := rng.IntN(g.Schema().NumFields()), float64(rng.IntN(1000))-1
					if op%2 == 0 {
						g.SetProp(v, slot, x)
					} else {
						v.SetPropRaw(slot, x)
					}
					model[id][slot] = x
				}
			}
			check("at the end")
			if err := Validate(g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConcurrentFirstWriteOfAColumn: goroutines write different rows of one
// chunk's column that none of them has allocated yet. Whoever installs the
// column, every write must land in it.
func TestConcurrentFirstWriteOfAColumn(t *testing.T) {
	const writers = 8
	for round := 0; round < 50; round++ {
		var el EdgeList
		for i := 0; i < chunkRows; i++ {
			el.Intern(VertexID(i))
		}
		g := Bulk(Options{}, &el, 1)
		slot := g.EnsureField("x")
		vw := g.View()
		other := g.EnsureField("y") // sys.index took a slot in between
		var start, done sync.WaitGroup
		start.Add(1)
		for w := 0; w < writers; w++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				for i := w; i < chunkRows; i += writers {
					vw.Verts[i].SetPropRaw(slot, float64(i+1))
					g.SetProp(vw.Verts[i], other, float64(-i-1))
				}
			}()
		}
		start.Done()
		done.Wait()
		for i, v := range vw.Verts {
			if a, b := v.Prop(slot), v.Prop(other); a != float64(i+1) || b != float64(-i-1) {
				t.Fatalf("round %d: vertex %d reads %v, %v", round, i, a, b)
			}
		}
	}
}

// TestAFieldCostsItsColumn: on a bulk-built graph a field occupies memory
// once it is written, about eight bytes a vertex, and the fifteen other
// reserved slots none.
func TestAFieldCostsItsColumn(t *testing.T) {
	const n = 100_000
	var el EdgeList
	for i := 0; i < n; i++ {
		el.Intern(VertexID(i))
	}
	g := Bulk(Options{}, &el, 1)
	slot := g.EnsureField("x")
	live := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	g.ForEachVertex(func(v *Vertex) { v.SetPropRaw(slot, 1) })
	if grew := live() - before; grew > n*8*3/2 {
		t.Fatalf("writing one field of %d vertices grew the live heap by %d bytes (%.1f per vertex)", n, grew, float64(grew)/n)
	}
	runtime.KeepAlive(g)
}
