package property

// Relayout reassigns the simulated addresses of every vertex in vw — the
// vertex record + property block, the out-edge chunk, and the in-edge
// chunk — in view order from a fresh arena region. Vertex records that are
// adjacent in the view become adjacent in the simulated address space, so
// perfmon-instrumented runs observe the cache behavior a reordering would
// produce if the graph had been loaded in that order; without it, a
// permuted view changes iteration order but every FindVertex/GetProp still
// hits the original insertion-order addresses and the cache model sees no
// layout change.
//
// Relayout mutates layout metadata only (no vertex, edge, or property
// values), but it must not run concurrently with any other use of the
// graph, and it invalidates address assumptions of previously captured
// traces. The harness applies it to throwaway Clones when measuring
// per-ordering MPKI, keeping the parity graphs byte-identical.
func Relayout(g *Graph, vw *View) {
	for _, v := range vw.Verts {
		relayoutVertex(g, v)
	}
}

// RelayoutPartitioned reassigns simulated addresses like Relayout, but
// starts each partition's region on a regionBytes boundary (a power of
// two; pass the NDP model's vault size). With the view's partition plan
// mapped onto vault-aligned regions, every partition's vertex records,
// property blocks and edge chunks share that partition's vault, so an
// ndp.Profile consuming the run's event stream (typically fanned out via
// mem.Multi alongside the host model) observes partition-local work as
// vault-local DRAM access and boundary exchange as the cross-vault
// traffic — the per-partition placement the HMC-style proposals assume.
// The partition layout is metadata-only, same caveats as Relayout; views
// without a partition plan fall back to the plain view-order layout.
func RelayoutPartitioned(g *Graph, vw *View, regionBytes uint64) {
	plan := vw.Partitions()
	if plan == nil || regionBytes == 0 {
		Relayout(g, vw)
		return
	}
	for q := 0; q < plan.K; q++ {
		g.arena.Alloc(0, regionBytes)
		lo, hi := plan.Range(q)
		for _, v := range vw.Verts[lo:hi] {
			relayoutVertex(g, v)
		}
	}
}

func relayoutVertex(g *Graph, v *Vertex) {
	v.addr = g.arena.Alloc(g.recordBytes(), 64)
	if v.edgeCap > 0 {
		v.edgeAddr = g.arena.Alloc(uint64(v.edgeCap)*edgeRecordBytes, 64)
	}
	if v.inCap > 0 {
		v.inAddr = g.arena.Alloc(uint64(v.inCap)*inRecordBytes, 64)
	}
}
