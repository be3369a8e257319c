package harness

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
)

// SharedWorkloads are the workloads that can take every input dataset —
// the set the paper uses for its data-sensitivity studies (Fig 9, 12, 13):
// exactly the 8 workloads shared between the CPU and GPU sides.
func SharedWorkloads() []string {
	return core.GPUNames()
}

// Fig9 reproduces Figure 9: per-dataset L1D hit rate, DTLB miss-cycle
// share and IPC for the workloads that accept every dataset.
func Fig9(s *Session) (Report, error) {
	r := Report{
		ID:      "fig09",
		Title:   "Data sensitivity (CPU): L1D hit / DTLB penalty / IPC",
		Headers: []string{"workload", "dataset", "l1d_hit", "dtlb_cycles", "ipc", "l3_hit"},
	}
	for _, wl := range SharedWorkloads() {
		for _, ds := range s.DatasetNames() {
			m, err := s.Profile(wl, ds)
			if err != nil {
				return Report{}, err
			}
			r.AddRow(wl, ds, pc1(m.L1DHit), f2(m.DTLBPenaltyPC)+"%", f3(m.IPC), pc1(m.L3Hit))
		}
	}
	r.Notes = append(r.Notes,
		"paper: L1D hit stays high everywhere except DCentr; twitter shows the highest DTLB penalty and lowest IPC in most workloads")
	return r, nil
}

// Table5 reproduces Tables 5/7: the dataset inventory with generated
// vertex/edge counts next to the paper-scale targets. With Cfg.Input set
// it lists the input file instead, with no paper sizes to compare.
func Table5(s *Session) (Report, error) {
	r := Report{
		ID:      "tab05",
		Title:   "Datasets (generated at session scale vs paper scale)",
		Headers: []string{"dataset", "source type", "V(gen)", "E(gen)", "avg deg", "max deg", "V(paper)", "E(paper)"},
	}
	for _, name := range s.DatasetNames() {
		g, err := s.Graph(name)
		if err != nil {
			return Report{}, err
		}
		typ, paperV, paperE := "input", "", ""
		if s.Cfg.Input == "" {
			d, _ := gen.ByName(name) // a gen.Catalog name: it resolves
			typ, paperV, paperE = d.Type.String(), fmt.Sprintf("%d", d.PaperV), fmt.Sprintf("%d", d.PaperE)
		}
		p := gen.Summarize(g)
		r.AddRow(name, typ,
			fmt.Sprintf("%d", p.V), fmt.Sprintf("%d", p.E),
			f2(p.AvgDeg), fmt.Sprintf("%d", p.MaxDeg),
			paperV, paperE)
	}
	net := s.Bayes()
	r.AddRow("munin(bayes)", "nature",
		fmt.Sprintf("%d", len(net.Nodes)), fmt.Sprintf("%d", net.Edges()),
		"", fmt.Sprintf("params=%d", net.Params()),
		"1041", "1397")
	note := fmt.Sprintf("generated at scale %.3g of the paper sizes", s.Cfg.Scale)
	if s.Cfg.Input != "" {
		note = "loaded from " + s.Cfg.Input
	}
	r.Notes = append(r.Notes, note)
	return r, nil
}

// Fig4 reproduces Figure 4: the use-case analysis behind workload
// selection (static data reconstructed from the paper).
func Fig4(s *Session) (Report, error) {
	r := Report{
		ID:      "fig04",
		Title:   "Use-case analysis: workload popularity and category shares",
		Headers: []string{"workload", "use cases", "", "category", "share"},
	}
	names := paperOrder()
	for i := 0; i < len(names) || i < len(core.UseCaseCategories); i++ {
		var a, b, c, d string
		if i < len(names) {
			a = names[i]
			b = fmt.Sprintf("%d", core.UseCaseCounts[names[i]])
		}
		if i < len(core.UseCaseCategories) {
			c = core.UseCaseCategories[i].Name
			d = fmt.Sprintf("%d%%", core.UseCaseCategories[i].Percent)
		}
		r.AddRow(a, b, "", c, d)
	}
	r.Notes = append(r.Notes, "static reconstruction of the paper's 21-use-case survey (BFS most used: 10; TC least: 4)")
	return r, nil
}
