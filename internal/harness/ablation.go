package harness

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gpuwl"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// The ablations quantify the design choices DESIGN.md §5 calls out. They
// are not paper figures; they test the paper's *explanations*. Each one
// measures a metric under the configuration the suite runs (the baseline)
// and under an alternative, on LDBC, and states what the explanation
// predicts as a bound on alt/base.
type ablation struct {
	choice  string // the design choice
	metric  string
	base    string // the configuration the suite runs
	alt     string // the alternative measured against it
	paper   string // where the paper makes the argument
	below   bool   // the claim: alt/base < ratio if below, > ratio otherwise
	ratio   float64
	measure func(*Session) (base, alt float64, err error)
}

// holds reports whether a measured pair agrees with the claim.
func (a ablation) holds(base, alt float64) bool {
	if a.below {
		return alt/base < a.ratio
	}
	return alt/base > a.ratio
}

func (a ablation) claim() string {
	if a.below {
		return fmt.Sprintf("< %.3gx", a.ratio)
	}
	return fmt.Sprintf("> %.3gx", a.ratio)
}

// ablations is abl01's table, one row per measured pair. Measures read the
// session's cached runs where the baseline already exists (the CPU sweep's
// DCentr and BFS profiles, fig10's GPU BFS) and run only the alternative.
var ablations = []ablation{
	{
		choice: "data layout", metric: "L3 MPKI", base: "vertex-centric", alt: "CSR",
		paper: "§2", below: true, ratio: 1, measure: layoutL3MPKI,
	},
	{
		choice: "GPU kernel model", metric: "BFS BDR", base: "thread-centric", alt: "edge-centric",
		paper: "Figs 10, 13", below: true, ratio: 1, measure: kernelBDR,
	},
	{
		choice: "framework", metric: "BFS Minsts", base: "primitives", alt: "raw CSR",
		paper: "Fig 1", below: true, ratio: 1 / 1.5, measure: frameworkMinsts,
	},
	{
		choice: "software stack", metric: "BFS ICache MPKI", base: "flat", alt: "deep",
		paper: "§5.2.1", below: false, ratio: 1, measure: stackICacheMPKI,
	},
	{
		choice: "traversal", metric: "BFS Minsts", base: "top-down", alt: "direction-optimizing",
		paper: "§5.3", below: true, ratio: 0.5, measure: traversalMinsts,
	},
	{
		choice: "prefetch", metric: "DCentr L2 MPKI", base: "demand only", alt: "next-line",
		paper: "§2", below: true, ratio: 0.9, measure: prefetchL2MPKI("DCentr"),
	},
	{
		choice: "prefetch", metric: "BFS L2 MPKI", base: "demand only", alt: "next-line",
		paper: "§2", below: true, ratio: 0.9, measure: prefetchL2MPKI("BFS"),
	},
}

// Abl01DesignChoices renders the ablation table: each design choice's two
// measurements, their ratio, and whether the paper's claim holds.
func Abl01DesignChoices(s *Session) (Report, error) {
	r := Report{
		ID:      "abl01",
		Title:   "Design-choice ablations (LDBC)",
		Headers: []string{"choice", "metric", "baseline", "alternative", "base", "alt", "alt/base", "claim", "paper", "holds"},
	}
	for _, a := range ablations {
		base, alt, err := a.measure(s)
		if err != nil {
			return Report{}, fmt.Errorf("%s ablation: %w", a.choice, err)
		}
		holds := "no"
		if a.holds(base, alt) {
			holds = "yes"
		}
		r.AddRow(a.choice, a.metric, a.base, a.alt, f3(base), f3(alt), f3(alt/base)+"x", a.claim(), a.paper, holds)
	}
	r.Notes = append(r.Notes,
		"vertex-centric sweep: DCentr's instrumented run; CSR sweep: one pass over the CSR arrays; deep stack: 4 MiB code footprint, 256 KiB hot region",
		"paper: CSR's compact format brings better locality (§2); edge-centric kernels balance warps (Figs 10/13); most time is spent in the framework (Fig 1); the flat stack keeps ICache MPKI low (§5.2.1)")
	return r, nil
}

// profileOn returns the named workload's counters on LDBC under machine,
// read from the session cache when machine is the session's own.
func (s *Session) profileOn(wlName string, machine perfmon.Config) (perfmon.Metrics, error) {
	if machine == s.Cfg.Machine {
		return s.Profile(wlName, "ldbc")
	}
	wl, err := core.ByName(wlName)
	if err != nil {
		return perfmon.Metrics{}, err
	}
	return s.profile(wl, input{dataset: "ldbc"}, machine)
}

// layoutL3MPKI compares a full adjacency sweep over the dynamic
// vertex-centric layout (DCentr's instrumented run: one Neighbors walk per
// vertex through the framework, plus one property store) with one over
// the compact CSR arrays.
func layoutL3MPKI(s *Session) (float64, float64, error) {
	vtx, err := s.Profile("DCentr", "ldbc")
	if err != nil {
		return 0, 0, err
	}
	c, err := s.CSR("ldbc")
	if err != nil {
		return 0, 0, err
	}
	prof := perfmon.NewProfile(s.Cfg.Machine)
	c.TraverseInstrumented(prof)
	return vtx.L3MPKI, prof.Report().L3MPKI, nil
}

// kernelBDR compares thread-centric BFS (fig10's run) with edge-centric
// BFSEdge on the simulated GPU: the divergence mechanism of Figs 10/13.
func kernelBDR(s *Session) (float64, float64, error) {
	thread, err := s.gpuPoint("BFS", "ldbc")
	if err != nil {
		return 0, 0, err
	}
	c, err := s.CSR("ldbc")
	if err != nil {
		return 0, 0, err
	}
	d := simt.NewDevice(s.Cfg.GPU)
	gpuwl.BFSEdge(d, c)
	return thread.Stats.BDR(), d.Stats().BDR(), nil
}

// frameworkMinsts compares BFS through the framework primitives with an
// array BFS over the CSR form that bypasses every primitive: the
// in-framework overhead of Fig 1.
func frameworkMinsts(s *Session) (float64, float64, error) {
	fw, err := s.Profile("BFS", "ldbc")
	if err != nil {
		return 0, 0, err
	}
	c, err := s.CSR("ldbc")
	if err != nil {
		return 0, 0, err
	}
	prof := perfmon.NewProfile(s.Cfg.Machine)
	lvl := make([]int32, c.N)
	for i := range lvl {
		lvl[i] = -1
	}
	if c.N > 0 {
		lvl[0] = 0
		queue := []int32{0}
		lvlAddr := uint64(1 << 30)
		for qh := 0; qh < len(queue); qh++ {
			u := queue[qh]
			prof.Load(lvlAddr+uint64(u)*4, 4)
			prof.Inst(2)
			for k := c.RowPtr[u]; k < c.RowPtr[u+1]; k++ {
				prof.Load(c.ColAddr(k), 4)
				v := c.Col[k]
				prof.Load(lvlAddr+uint64(v)*4, 4)
				prof.Branch(property.SiteUserBase+30, lvl[v] >= 0)
				prof.Inst(2)
				if lvl[v] < 0 {
					lvl[v] = lvl[u] + 1
					prof.Store(lvlAddr+uint64(v)*4, 4)
					queue = append(queue, v)
				}
			}
		}
	}
	return float64(fw.Insts) / 1e6, float64(prof.Report().Insts) / 1e6, nil
}

// stackICacheMPKI profiles BFS under the flat GraphBIG code layout and a
// deep-stack one (layered libraries, hot path spread across layers): the
// §5.2.1 explanation for GraphBIG's low ICache MPKI.
func stackICacheMPKI(s *Session) (float64, float64, error) {
	flat, err := s.Profile("BFS", "ldbc")
	if err != nil {
		return 0, 0, err
	}
	deep := s.Cfg.Machine
	deep.CodeFootprintBytes = 4 << 20
	deep.HotRegionBytes = 256 << 10
	deep.HotJumpProb = 0.9
	m, err := s.profileOn("BFS", deep)
	if err != nil {
		return 0, 0, err
	}
	return flat.ICacheMPKI, m.ICacheMPKI, nil
}

// traversalMinsts counts the instructions of top-down BFS and of the
// direction-optimizing variant: the edge examinations bottom-up rounds
// save on a low-diameter social graph.
func traversalMinsts(s *Session) (float64, float64, error) {
	var insts [2]float64
	for i, name := range []string{"BFS", "BFSDirOpt"} {
		wl, err := core.ByName(name)
		if err != nil {
			return 0, 0, err
		}
		c := mem.NewCounting()
		if _, err := s.run(wl, input{dataset: "ldbc"}, workloads.Options{Seed: s.Cfg.Seed}, c); err != nil {
			return 0, 0, err
		}
		insts[i] = float64(c.TotalInsts()) / 1e6
	}
	return insts[0], insts[1], nil
}

// prefetchL2MPKI compares demand-only caching with the adjacent-line
// prefetcher for one workload. Because a vertex's property block sits in
// the line after its record, lookup-heavy BFS has as strong a next-line
// pattern as streaming DCentr: the layout bakes prefetchability in (§2's
// data-representation argument).
func prefetchL2MPKI(wlName string) func(*Session) (float64, float64, error) {
	return func(s *Session) (float64, float64, error) {
		var mpki [2]float64
		for i, on := range []bool{false, true} {
			machine := s.Cfg.Machine
			machine.PrefetchNextLine = on
			m, err := s.profileOn(wlName, machine)
			if err != nil {
				return 0, 0, err
			}
			mpki[i] = m.L2MPKI
		}
		return mpki[0], mpki[1], nil
	}
}
