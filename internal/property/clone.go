package property

// Clone returns a deep copy of g: same vertices, edges, in-lists and
// property values, sharing no mutable state with the original. The clone
// carries no tracker and a fresh arena. Destructive workloads (GUp,
// TMorph inputs) run against clones so a dataset is generated once per
// experiment sweep.
func Clone(g *Graph) *Graph {
	ng := New(Options{
		Directed:      g.directed,
		TrackInEdges:  g.trackIn,
		Schema:        NewSchema(g.sch.Names()...),
		EdgePropSlots: g.edgeSlots,
		Shards:        len(g.shards),
		Hint:          g.VertexCount(),
	})
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, v := range sh.verts {
			if v.dead {
				continue
			}
			nv, _ := ng.AddVertex(v.ID)
			copyProps(nv, v)
			for k, m := range sh.meta[v] {
				ng.SetMeta(nv, k, m.data)
			}
			if len(v.Out) > 0 {
				nv.Out = make([]Edge, len(v.Out))
				copy(nv.Out, v.Out)
				if rows, ok := sh.eprops[v]; ok {
					nsh := ng.shardOf(v.ID)
					nsh.mu.Lock()
					nsh.putEdgeProps(nv, append([]float64(nil), rows...))
					nsh.mu.Unlock()
				}
				nv.edgeCap = Index32(len(v.Out))
				nv.edgeAddr = ng.arena.Alloc(uint64(nv.edgeCap)*ng.edgeRec, 64)
			}
			if len(v.In) > 0 {
				nv.In = make([]VertexID, len(v.In))
				copy(nv.In, v.In)
				nv.inCap = Index32(len(v.In))
				nv.inAddr = ng.arena.Alloc(uint64(nv.inCap)*inRecordBytes, 64)
			}
		}
		sh.mu.RUnlock()
	}
	ng.nEdges.Store(g.nEdges.Load())
	return ng
}
