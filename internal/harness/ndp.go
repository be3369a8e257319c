package harness

import (
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/ndp"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// ndpCycles costs one instrumented run of the named workload on LDBC
// (Gibbs on MUNIN) on the NDP model, in host-clock cycles of the
// vault-parallel ensemble. The host side of the comparison is the CPU
// sweep's profile of the same run: runs start from the dataset's fixed
// layout, so the two models see the same event stream.
func (s *Session) ndpCycles(wlName string) (uint64, error) {
	wl, err := core.ByName(wlName)
	if err != nil {
		return 0, err
	}
	near := ndp.NewProfile(ndp.DefaultConfig())
	if _, err := s.run(wl, input{dataset: "ldbc"}, workloads.Options{Seed: s.Cfg.Seed}, near); err != nil {
		return 0, err
	}
	return near.Report().HostCyclesParallel, nil
}

// Ext04PartitionPlacement models per-partition data placement on the NDP
// substrate: each partition's vertex records, property blocks and edge
// chunks are re-laid-out into their own vault-aligned region
// (property.RelayoutPartitioned), and the instrumented event stream feeds
// the NDP vault model, so internal/cachesim (inside ndp.Profile) sees the
// partitioned layout. The instrumented stream is the flat single-threaded
// walk (the parity-pinned execution), so this measures the placement
// sensitivity of host-style execution: as partitions spread across
// vaults, every cut-edge touch becomes a crossbar hop and the local-miss
// share falls. The remote-miss delta against k=1 approximates the
// cross-vault traffic a subgraph-centric scheduler would internalize by
// running each vault's work on its own unit and batching boundary
// exchange; no such scheduler is modelled (DESIGN.md §10). Runs happen on
// throwaway clones; parity graphs are never re-laid-out.
func Ext04PartitionPlacement(s *Session) (Report, error) {
	r := Report{
		ID:      "ext04",
		Title:   "Extension: partitioned NDP placement (LDBC)",
		Headers: []string{"workload", "partitions", "cut edges", "local miss", "remote miss", "local share", "ndp Mcycles"},
	}
	for _, wlName := range []string{"BFS", "CComp", "SPathDelta"} {
		wl, err := core.ByName(wlName)
		if err != nil {
			return Report{}, err
		}
		for _, k := range []int{1, 4, 16} {
			g, err := s.Graph("ldbc")
			if err != nil {
				return Report{}, err
			}
			g = property.Clone(g)
			vw := g.ViewWith(property.ViewOpts{Partitions: k})
			ndpCfg := ndp.DefaultConfig()
			property.RelayoutPartitioned(g, vw, ndpCfg.VaultBytes)
			near := ndp.NewProfile(ndpCfg)
			if _, err := s.run(wl, input{g: g, vw: vw}, workloads.Options{Seed: s.Cfg.Seed}, near); err != nil {
				return Report{}, err
			}
			nm := near.Report()
			localShare := 0.0
			if total := nm.LocalMiss + nm.RemoteMiss; total > 0 {
				localShare = float64(nm.LocalMiss) / float64(total)
			}
			r.AddRow(wlName, fi(k), fi(int(vw.Partitions().CutEdges)),
				fi(int(nm.LocalMiss)), fi(int(nm.RemoteMiss)),
				f2(localShare), f2(float64(nm.HostCycles)/1e6))
		}
	}
	r.Notes = append(r.Notes,
		"vault-aligned per-partition placement under flat (host-style) execution; the falling local share with k is the cross-vault traffic a subgraph-centric NDP scheduler would internalize")
	return r, nil
}

// Ext01NDP is the extension experiment behind the paper's future-work
// note: cost every CPU workload on both the host machine (the CPU sweep's
// profile) and the NDP model, one host core against the vault-parallel
// NDP ensemble, the configuration the cited proposals evaluate. The
// memory-bound CompStruct workloads gain the most — the premise of the
// NDP proposals the paper cites.
func Ext01NDP(s *Session) (Report, error) {
	r := Report{
		ID:      "ext01",
		Title:   "Extension: near-data processing vs host (LDBC)",
		Headers: []string{"workload", "type", "host Mcycles", "ndp Mcycles", "ndp speedup"},
	}
	for _, name := range paperOrder() {
		host, err := s.Profile(name, "ldbc")
		if err != nil {
			return Report{}, err
		}
		near, err := s.ndpCycles(name)
		if err != nil {
			return Report{}, err
		}
		speedup := 0.0
		if near > 0 {
			speedup = float64(host.TotalCycles) / float64(near)
		}
		wl, _ := core.ByName(name)
		r.AddRow(name, wl.Type.String(),
			f2(float64(host.TotalCycles)/1e6), f2(float64(near)/1e6),
			f2(speedup)+"x")
	}
	r.Notes = append(r.Notes,
		"extension beyond the paper (its conclusion names NDP as future work); expectation: CompStruct gains most, CompProp least")
	return r, nil
}
