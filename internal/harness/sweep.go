package harness

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gen"
)

// SweepPoint is one cell of the dataset-size scaling study.
type SweepPoint struct {
	Workload string
	Vertices int
	Edges    int
	L3MPKI   float64
	L1DHit   float64
	DTLBPC   float64
	IPC      float64
}

// SizeSweep profiles a workload over LDBC graphs of growing size — the
// study the paper's §4.3 designed the LDBC generator for ("compare the
// impact of data set size"). Sizes are fractions of the session scale so
// the sweep shares the session's largest graph budget; the machine model
// is held fixed (the session's scaled configuration) so the trend shows
// pure footprint growth against fixed capacities.
func (s *Session) SizeSweep(wlName string, fractions []float64) ([]SweepPoint, error) {
	wl, err := core.ByName(wlName)
	if err != nil {
		return nil, err
	}
	if wl.NeedsBayes {
		return nil, fmt.Errorf("harness: %s has a fixed-size input", wlName)
	}
	var out []SweepPoint
	for _, f := range fractions {
		v := int(1_000_000 * s.Cfg.Scale * f)
		if v < 64 {
			v = 64
		}
		g := gen.LDBC(v, s.Cfg.Seed, 0)
		m, err := s.profile(wl, input{g: g, vw: g.View()}, s.Cfg.Machine)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Workload: wlName,
			Vertices: g.VertexCount(),
			Edges:    g.EdgeCount(),
			L3MPKI:   m.L3MPKI,
			L1DHit:   m.L1DHit,
			DTLBPC:   m.DTLBPenaltyPC,
			IPC:      m.IPC,
		})
	}
	return out, nil
}

// Ext02SizeSweep is the dataset-size extension experiment: BFS and DCentr
// over LDBC graphs spanning 8x in size. Expectation: MPKI and DTLB
// penalty grow (and IPC falls) as the footprint outruns the fixed caches.
func Ext02SizeSweep(s *Session) (Report, error) {
	r := Report{
		ID:      "ext02",
		Title:   "Extension: LDBC size sweep (fixed machine)",
		Headers: []string{"workload", "V", "E", "l3_mpki", "l1d_hit", "dtlb_cycles", "ipc"},
	}
	fractions := []float64{0.125, 0.25, 0.5, 1.0}
	for _, wl := range []string{"BFS", "DCentr"} {
		pts, err := s.SizeSweep(wl, fractions)
		if err != nil {
			return Report{}, err
		}
		for _, p := range pts {
			r.AddRow(p.Workload, fmt.Sprintf("%d", p.Vertices), fmt.Sprintf("%d", p.Edges),
				f2(p.L3MPKI), pc1(p.L1DHit), f2(p.DTLBPC)+"%", f3(p.IPC))
		}
	}
	r.Notes = append(r.Notes,
		"extension of the paper's §4.3 size-scalability motivation for the LDBC generator")
	return r, nil
}
