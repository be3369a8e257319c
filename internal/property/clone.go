package property

// Clone returns a deep copy of g: same vertices, edges, in-lists and
// property values, sharing no mutable state with the original. The clone
// carries no tracker and a fresh arena. Destructive workloads (GUp,
// TMorph inputs) run against clones so a dataset is generated once per
// experiment sweep.
//
// The clone is indexed as Bulk indexes its input: by one flat id→vertex
// table when the live IDs are dense (denseIDs over the live vertices;
// tombstones count toward neither the number nor the largest ID), else by
// shard maps made at their exact size. Its simulated layout does not
// depend on which: it is that of New with Hint = VertexCount() followed by
// AddVertex of every live vertex in shard order.
func Clone(g *Graph) *Graph { return clone(g, true) }

// clone is Clone with the flat table allowed or not, so a test can hold
// the two indexes to one layout.
func clone(g *Graph, flat bool) *Graph {
	ng := newGraph(Options{
		Directed:      g.directed,
		TrackInEdges:  g.trackIn,
		Schema:        NewSchema(g.sch.Names()...),
		EdgePropSlots: g.edgeSlots,
		Shards:        len(g.shards),
		Hint:          g.VertexCount(),
	}, false)
	// Same shard count, so shard i of the clone holds shard i's vertices.
	live := make([]int, len(g.shards))
	n, maxID := 0, VertexID(0)
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, v := range sh.verts {
			if !v.dead {
				live[i]++
				maxID = max(maxID, v.ID)
			}
		}
		sh.mu.RUnlock()
		n += live[i]
	}
	if flat && denseIDs(n, maxID) {
		ng.flat = make([]*Vertex, maxID+1)
	} else {
		for i := range ng.shards {
			ng.shards[i].index = make(map[VertexID]*Vertex, live[i])
		}
	}
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
