package property

import (
	"errors"

	"github.com/graphbig/graphbig-go/internal/mem"
)

// The paper's property-graph model attaches user-defined properties to
// vertices and edges ("graph systems represent graph data as a property
// graph, which associates user-defined properties with each vertex and
// edge", §2). Vertex properties live in schema slots; this file adds the
// edge-property primitives and free-form vertex metadata blobs (user
// profiles, annotations) with simulated-address accounting.

// ErrNoEdgeProps is returned when edge-property primitives are used on a
// graph built without Options.EdgePropSlots.
var ErrNoEdgeProps = errors.New("property: graph built without edge property slots")

// ErrEdgeNotFound is returned when an edge-property primitive cannot find
// the addressed edge.
var ErrEdgeNotFound = errors.New("property: edge not found")

var errEdgeSlotRange = errors.New("property: edge property slot out of range")

// Edge-property rows live beside the adjacency list, not in the record: a
// graph built without EdgePropSlots, and a vertex none of whose edges has
// had a slot written, pay nothing for them. Where a vertex has rows there
// is one per record of v.Out, in the same order, Graph.edgeSlots wide and
// zero until written. The simulated layout is unaffected: slot s of record
// i is still at edgeAddr + i*edgeRec + edgeRecordBytes + 8s.

// edgeProp reads slot of v.Out[i] (0 if never written).
func (g *Graph) edgeProp(v *Vertex, i, slot int) float64 {
	sh := g.shardOf(v.ID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if rows, ok := sh.eprops[v]; ok {
		return rows[i*g.edgeSlots+slot]
	}
	return 0
}

// setEdgePropRecord updates one record (and reports the store).
func (g *Graph) setEdgePropRecord(v *Vertex, i int, slot int, x float64) {
	sh := g.shardOf(v.ID)
	sh.mu.Lock()
	rows, ok := sh.eprops[v]
	if !ok {
		rows = make([]float64, len(v.Out)*g.edgeSlots)
		sh.putEdgeProps(v, rows)
	}
	rows[i*g.edgeSlots+slot] = x
	sh.mu.Unlock()
	if t := g.trk; t != nil {
		t.Store(v.edgeAddr+uint64(i)*g.edgeRec+uint64(edgeRecordBytes+slot*8), 8)
		t.Inst(2)
	}
}

// putEdgeProps stores v's rows, making the shard's map on first use. The
// caller holds sh.mu.
func (sh *shard) putEdgeProps(v *Vertex, rows []float64) {
	if sh.eprops == nil {
		sh.eprops = make(map[*Vertex][]float64)
	}
	sh.eprops[v] = rows
}

// growEdgeProps gives the record just appended to v.Out its zero row, if v
// has rows at all. The caller holds v's shard lock, as for the append.
func (g *Graph) growEdgeProps(v *Vertex) {
	sh := g.shardOf(v.ID)
	if rows, ok := sh.eprops[v]; ok {
		// Zeros one by one: what lies past len(rows) may be a row an
		// earlier swap-remove left behind.
		for s := 0; s < g.edgeSlots; s++ {
			rows = append(rows, 0)
		}
		sh.eprops[v] = rows
	}
}

// swapRemoveEdgeProps mirrors removeOutRecord's swap-remove of record i
// (last moved into its place) on v's rows, under the same lock.
func (g *Graph) swapRemoveEdgeProps(v *Vertex, i, last int) {
	sh := g.shardOf(v.ID)
	if rows, ok := sh.eprops[v]; ok {
		k := g.edgeSlots
		copy(rows[i*k:(i+1)*k], rows[last*k:(last+1)*k])
		sh.eprops[v] = rows[:last*k]
	}
}

// SetEdgeProp writes slot of the src->dst edge through the framework.
// On undirected graphs the mirrored record is updated too, so both
// traversal directions observe the value.
func (g *Graph) SetEdgeProp(src, dst VertexID, slot int, x float64) error {
	if g.edgeSlots == 0 {
		return ErrNoEdgeProps
	}
	if slot < 0 || slot >= g.edgeSlots {
		return errEdgeSlotRange
	}
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		defer t.Exit()
		t.Inst(6)
	}
	sv := g.FindVertex(src)
	if sv == nil {
		return ErrEdgeNotFound
	}
	found := false
	for i := range sv.Out {
		if t != nil {
			t.Load(sv.edgeAddr+uint64(i)*g.edgeRec, edgeRecordBytes)
			t.Branch(siteEdgeScan, sv.Out[i].To != dst)
		}
		if sv.Out[i].To == dst {
			g.setEdgePropRecord(sv, i, slot, x)
			found = true
			break
		}
	}
	if !found {
		return ErrEdgeNotFound
	}
	if !g.directed && src != dst {
		dv := g.FindVertex(dst)
		if dv != nil {
			for i := range dv.Out {
				if dv.Out[i].To == src {
					g.setEdgePropRecord(dv, i, slot, x)
					break
				}
			}
		}
	}
	return nil
}

// GetEdgeProp reads slot of the src->dst edge through the framework.
func (g *Graph) GetEdgeProp(src, dst VertexID, slot int) (float64, error) {
	if g.edgeSlots == 0 {
		return 0, ErrNoEdgeProps
	}
	if slot < 0 || slot >= g.edgeSlots {
		return 0, errEdgeSlotRange
	}
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		defer t.Exit()
		t.Inst(5)
	}
	sv := g.FindVertex(src)
	if sv == nil {
		return 0, ErrEdgeNotFound
	}
	for i := range sv.Out {
		if t != nil {
			t.Load(sv.edgeAddr+uint64(i)*g.edgeRec, edgeRecordBytes)
			t.Branch(siteEdgeScan, sv.Out[i].To != dst)
		}
		if sv.Out[i].To == dst {
			if t != nil {
				t.Load(sv.edgeAddr+uint64(i)*g.edgeRec+uint64(edgeRecordBytes+slot*8), 8)
			}
			return g.edgeProp(sv, i, slot), nil
		}
	}
	return 0, ErrEdgeNotFound
}

// EdgePropSlots returns the per-edge property capacity.
func (g *Graph) EdgePropSlots() int { return g.edgeSlots }

// --- vertex metadata blobs --------------------------------------------------

// meta is the free-form payload attached to a vertex: rich metadata such
// as user profiles or gene annotations (paper §2). The blobs of a shard's
// vertices live in shard.meta, under the shard lock.
type meta struct {
	data []byte
	addr uint64
}

// SetMeta attaches (or replaces) a named metadata blob on v. The blob is
// copied; its simulated storage is allocated from the graph arena and
// reported as framework stores.
func (g *Graph) SetMeta(v *Vertex, key string, data []byte) {
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(uint64(8 + len(key)))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	addr := g.arena.Alloc(uint64(len(data))+16, 16)
	sh := g.shardOf(v.ID)
	sh.mu.Lock()
	if sh.meta == nil {
		sh.meta = make(map[*Vertex]map[string]meta)
	}
	if sh.meta[v] == nil {
		sh.meta[v] = make(map[string]meta, 2)
	}
	sh.meta[v][key] = meta{data: cp, addr: addr}
	sh.mu.Unlock()
	if t != nil {
		t.Store(addr, Size32(uint64(len(data))+16))
		t.Exit()
	}
}

// Meta reads a metadata blob (nil if absent). The returned slice must not
// be modified.
func (g *Graph) Meta(v *Vertex, key string) []byte {
	t := g.trk
	if t != nil {
		t.Enter(mem.ClassFramework)
		t.Inst(uint64(6 + len(key)))
	}
	sh := g.shardOf(v.ID)
	sh.mu.RLock()
	m, ok := sh.meta[v][key]
	sh.mu.RUnlock()
	if t != nil {
		if ok {
			t.Load(m.addr, Size32(uint64(len(m.data))+16))
		}
		t.Exit()
	}
	if !ok {
		return nil
	}
	return m.data
}

// MetaKeys returns the metadata keys attached to v (order unspecified).
func (g *Graph) MetaKeys(v *Vertex) []string {
	sh := g.shardOf(v.ID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]string, 0, len(sh.meta[v]))
	for k := range sh.meta[v] {
		out = append(out, k)
	}
	return out
}
