package harness

import (
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/stats"
)

// paperOrder lists the CPU workloads grouped by computation type, the
// grouping the paper's Figures 5-8 use on their x axes.
func paperOrder() []string {
	var names []string
	for _, t := range []core.ComputationType{core.CompStruct, core.CompProp, core.CompDyn} {
		names = append(names, core.ByType(t)...)
	}
	return names
}

// Fig1 reproduces Figure 1: the share of execution attributed to the
// framework for every CPU workload (the paper reports 76% on average,
// highest for the traversal-based workloads).
func Fig1(s *Session) (Report, error) {
	sweep, err := s.CPUSweep()
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:      "fig01",
		Title:   "In-framework share of execution (retired instructions)",
		Headers: []string{"workload", "framework", "user"},
	}
	shares := make([]float64, 0, len(sweep))
	for _, name := range paperOrder() {
		m := sweep[name]
		r.AddRow(name, pc1(m.FrameworkShare), pc1(1-m.FrameworkShare))
		shares = append(shares, m.FrameworkShare)
	}
	avg := stats.Mean(shares)
	r.AddRow("average", pc1(avg), pc1(1-avg))
	r.Notes = append(r.Notes, "paper: average in-framework time 76%, highest for traversal-based workloads")
	return r, nil
}

// Fig5 reproduces Figure 5: the top-down execution-cycle breakdown
// (Frontend / BadSpeculation / Retiring / Backend) per workload, grouped
// by computation type.
func Fig5(s *Session) (Report, error) {
	sweep, err := s.CPUSweep()
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:      "fig05",
		Title:   "Execution cycle breakdown",
		Headers: []string{"workload", "type", "frontend", "badspec", "retiring", "backend"},
	}
	for _, name := range paperOrder() {
		m := sweep[name]
		wl, _ := core.ByName(name)
		r.AddRow(name, wl.Type.String(), pc1(m.Frontend), pc1(m.BadSpec), pc1(m.Retiring), pc1(m.Backend))
	}
	r.Notes = append(r.Notes,
		"paper: backend dominates most workloads (kCore/GUp > 90%); CompProp only ~50%")
	return r, nil
}

// Fig6 reproduces Figure 6: DTLB miss penalty share, ICache MPKI and
// branch miss-prediction rate per workload.
func Fig6(s *Session) (Report, error) {
	sweep, err := s.CPUSweep()
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:      "fig06",
		Title:   "DTLB penalty, ICache MPKI, branch miss rate",
		Headers: []string{"workload", "dtlb_cycles", "icache_mpki", "branch_miss"},
	}
	var dtlb []float64
	for _, name := range paperOrder() {
		m := sweep[name]
		r.AddRow(name, f2(m.DTLBPenaltyPC)+"%", f3(m.ICacheMPKI), pc1(m.BranchMiss))
		dtlb = append(dtlb, m.DTLBPenaltyPC)
	}
	r.AddRow("average", f2(stats.Mean(dtlb))+"%", "", "")
	r.Notes = append(r.Notes,
		"paper: DTLB penalty avg 12.4% (CComp 21.1%, TC 3.9%, Gibbs 1%); ICache MPKI < 0.7; branch miss < 5% except TC 10.7%")
	return r, nil
}

// Fig7 reproduces Figure 7: L1D/L2/L3 cache MPKI per workload.
func Fig7(s *Session) (Report, error) {
	sweep, err := s.CPUSweep()
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:      "fig07",
		Title:   "Cache MPKI by level",
		Headers: []string{"workload", "l1d_mpki", "l2_mpki", "l3_mpki"},
	}
	var l3 []float64
	for _, name := range paperOrder() {
		m := sweep[name]
		r.AddRow(name, f2(m.L1DMPKI), f2(m.L2MPKI), f2(m.L3MPKI))
		l3 = append(l3, m.L3MPKI)
	}
	r.AddRow("average", "", "", f2(stats.Mean(l3)))
	r.Notes = append(r.Notes,
		"paper: L3 MPKI avg 48.77, DCentr 145.9, CComp 101.3; CompProp extremely small; CompDyn 6.3-27.5")
	return r, nil
}

// TypeAverages is the Figure 8 payload: per-computation-type means.
type TypeAverages struct {
	Type       core.ComputationType
	L3MPKI     float64
	DTLB       float64
	BranchMiss float64
	IPC        float64
	Backend    float64
}

// Fig8Data computes the per-type averages behind Figure 8.
func Fig8Data(s *Session) ([]TypeAverages, error) {
	sweep, err := s.CPUSweep()
	if err != nil {
		return nil, err
	}
	var out []TypeAverages
	for _, t := range []core.ComputationType{core.CompStruct, core.CompProp, core.CompDyn} {
		var l3, dtlb, bm, ipc, be stats.Running
		for _, name := range core.ByType(t) {
			m, ok := sweep[name]
			if !ok {
				continue
			}
			l3.Add(m.L3MPKI)
			dtlb.Add(m.DTLBPenaltyPC)
			bm.Add(m.BranchMiss)
			ipc.Add(m.IPC)
			be.Add(m.Backend)
		}
		out = append(out, TypeAverages{
			Type: t, L3MPKI: l3.Mean(), DTLB: dtlb.Mean(),
			BranchMiss: bm.Mean(), IPC: ipc.Mean(), Backend: be.Mean(),
		})
	}
	return out, nil
}

// Fig8 reproduces Figure 8: average behaviour per computation type.
func Fig8(s *Session) (Report, error) {
	data, err := Fig8Data(s)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		ID:      "fig08",
		Title:   "Average behaviour by computation type",
		Headers: []string{"type", "l3_mpki", "dtlb_cycles", "branch_miss", "ipc", "backend"},
	}
	for _, d := range data {
		r.AddRow(d.Type.String(), f2(d.L3MPKI), f2(d.DTLB)+"%", pc1(d.BranchMiss), f3(d.IPC), pc1(d.Backend))
	}
	r.Notes = append(r.Notes,
		"paper: CompStruct highest MPKI+DTLB and lowest IPC; CompProp high branch miss and highest IPC; CompDyn in between")
	return r, nil
}
