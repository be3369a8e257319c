package harness

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
)

// orderWorkloads are the frontier workloads the ordering experiment
// profiles: the traversal-bound kernels whose LLC behavior the paper's
// Figure 7 singles out.
var orderWorkloads = []string{"BFS", "CComp"}

// orderProfile profiles one frontier workload on LDBC under the named
// ordering. The run uses a throwaway clone whose simulated addresses are
// re-laid-out in view order (property.Relayout), so the cache model
// observes the locality the ordering would produce on a graph loaded in
// that order; the session's shared parity graphs are never touched.
func (s *Session) orderProfile(wl string, ordering string) (perfmon.Metrics, error) {
	base, err := s.Graph("ldbc")
	if err != nil {
		return perfmon.Metrics{}, err
	}
	ord, err := order.ByName(ordering)
	if err != nil {
		return perfmon.Metrics{}, err
	}
	w, err := core.ByName(wl)
	if err != nil {
		return perfmon.Metrics{}, err
	}
	g := property.Clone(base)
	vw := g.ViewWith(property.ViewOpts{Order: ord})
	property.Relayout(g, vw)
	return s.profile(w, input{g: g, vw: vw}, s.Cfg.Machine)
}

// Ext03Ordering is the ordering/locality experiment (DESIGN.md §8): for
// each reordering strategy, the frontier workloads run instrumented on a
// re-laid-out LDBC clone and report the simulated cache MPKI by level.
// Hub-clustered layouts pack the high-degree vertices every adjacency
// list keeps referencing into a compact address range, which is exactly
// the working-set compression the paper's memory-boundedness argument
// (§5, Figs 6-8) predicts should lower L2/LLC MPKI on power-law inputs.
func Ext03Ordering(s *Session) (Report, error) {
	r := Report{
		ID:      "ext03",
		Title:   "extension: vertex-ordering cache locality (LDBC, simulated MPKI)",
		Headers: []string{"ordering", "workload", "l1d_mpki", "l2_mpki", "l3_mpki", "l3_vs_none"},
	}
	baseline := make(map[string]float64, len(orderWorkloads))
	for _, ordering := range order.Names {
		for _, w := range orderWorkloads {
			m, err := s.orderProfile(w, ordering)
			if err != nil {
				return Report{}, err
			}
			delta := "—"
			if ordering == "none" {
				baseline[w] = m.L3MPKI
			} else if b := baseline[w]; b > 0 {
				delta = fmt.Sprintf("%+.1f%%", (m.L3MPKI/b-1)*100)
			}
			r.AddRow(ordering, w, f2(m.L1DMPKI), f2(m.L2MPKI), f2(m.L3MPKI), delta)
		}
	}
	r.Notes = append(r.Notes,
		"orderings permute the dense view and re-lay-out simulated addresses (property.Relayout); results are ordering-invariant, only locality changes",
		"expectation per GAP/Balaji&Lucia: degree/hub clustering helps power-law graphs; rcm favors mesh-like inputs")
	return r, nil
}
