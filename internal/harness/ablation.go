package harness

import (
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/gpuwl"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// The ablations quantify the design choices DESIGN.md §5 calls out. They
// are not paper figures; they test the paper's *explanations*.

// LayoutAblation compares the cache behaviour of a full adjacency sweep
// over the compact CSR layout versus the dynamic vertex-centric layout —
// the paper's §2 claim that CSR's compactness buys locality. The
// vertex-centric sweep is DCentr's instrumented run: one Neighbors walk
// per vertex through the framework, plus one property store.
type LayoutAblation struct {
	CSRL3MPKI    float64
	VertexL3MPKI float64
	CSRL1Hit     float64
	VertexL1Hit  float64
}

// AblationLayout runs both sweeps over the same dataset.
func (s *Session) AblationLayout(dataset string) (LayoutAblation, error) {
	c, err := s.CSR(dataset)
	if err != nil {
		return LayoutAblation{}, err
	}
	profCSR := perfmon.NewProfile(s.Cfg.Machine)
	c.TraverseInstrumented(profCSR)
	mCSR := profCSR.Report()

	mVtx, err := s.Profile("DCentr", dataset)
	if err != nil {
		return LayoutAblation{}, err
	}

	return LayoutAblation{
		CSRL3MPKI:    mCSR.L3MPKI,
		VertexL3MPKI: mVtx.L3MPKI,
		CSRL1Hit:     mCSR.L1DHit,
		VertexL1Hit:  mVtx.L1DHit,
	}, nil
}

// KernelModelAblation compares thread-centric and edge-centric BFS on the
// simulated GPU — the divergence mechanism behind Figures 10/13.
type KernelModelAblation struct {
	ThreadBDR, EdgeBDR float64
	ThreadMDR, EdgeMDR float64
}

// AblationKernelModel runs both kernels over the dataset's CSR form.
func (s *Session) AblationKernelModel(dataset string) (KernelModelAblation, error) {
	c, err := s.CSR(dataset)
	if err != nil {
		return KernelModelAblation{}, err
	}
	dT := simt.NewDevice(s.Cfg.GPU)
	gpuwl.BFS(dT, c)
	dE := simt.NewDevice(s.Cfg.GPU)
	gpuwl.BFSEdge(dE, c)
	return KernelModelAblation{
		ThreadBDR: dT.Stats().BDR(), EdgeBDR: dE.Stats().BDR(),
		ThreadMDR: dT.Stats().MDR(), EdgeMDR: dE.Stats().MDR(),
	}, nil
}

// FrameworkAblation compares a BFS through framework primitives against a
// raw-structure BFS, quantifying the in-framework overhead of Figure 1.
type FrameworkAblation struct {
	FrameworkInsts uint64
	RawInsts       uint64
	Overhead       float64 // framework/raw instruction ratio
}

// AblationFramework measures both BFS variants on the dataset.
func (s *Session) AblationFramework(dataset string) (FrameworkAblation, error) {
	mFw, err := s.Profile("BFS", dataset)
	if err != nil {
		return FrameworkAblation{}, err
	}
	// Raw variant: array BFS over the CSR form, bypassing every primitive.
	c, err := s.CSR(dataset)
	if err != nil {
		return FrameworkAblation{}, err
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
	mRaw := prof.Report()
	out := FrameworkAblation{FrameworkInsts: mFw.Insts, RawInsts: mRaw.Insts}
	if mRaw.Insts > 0 {
		out.Overhead = float64(mFw.Insts) / float64(mRaw.Insts)
	}
	return out, nil
}

// ICacheAblation compares the flat GraphBIG software stack against a
// deep-stack configuration — the paper's §5.2.1 explanation for why its
// ICache MPKI is low while other big-data frameworks' is high.
type ICacheAblation struct {
	FlatMPKI float64
	DeepMPKI float64
}

// AblationICache profiles BFS under both code-layout models.
func (s *Session) AblationICache(dataset string) (ICacheAblation, error) {
	mFlat, err := s.Profile("BFS", dataset)
	if err != nil {
		return ICacheAblation{}, err
	}
	wl, err := core.ByName("BFS")
	if err != nil {
		return ICacheAblation{}, err
	}
	deep := s.Cfg.Machine
	deep.CodeFootprintBytes = 4 << 20 // layered libraries
	deep.HotRegionBytes = 256 << 10   // hot path spread across layers
	deep.HotJumpProb = 0.9
	mDeep, err := s.profile(wl, input{dataset: dataset}, deep)
	if err != nil {
		return ICacheAblation{}, err
	}
	return ICacheAblation{FlatMPKI: mFlat.ICacheMPKI, DeepMPKI: mDeep.ICacheMPKI}, nil
}

// TraversalAblation compares classic top-down BFS against the
// direction-optimizing variant — the edge-examination savings that make
// bottom-up traversal the standard on low-diameter social graphs.
type TraversalAblation struct {
	TopDownInsts uint64
	DirOptInsts  uint64
	// Saving is 1 - diropt/topdown (fraction of work avoided).
	Saving         float64
	BottomUpLevels float64
}

// AblationTraversal measures both BFS variants with a counting tracker.
func (s *Session) AblationTraversal(dataset string) (TraversalAblation, error) {
	run := func(name string) (uint64, *workloads.Result, error) {
		wl, err := core.ByName(name)
		if err != nil {
			return 0, nil, err
		}
		c := mem.NewCounting()
		res, err := s.run(wl, input{dataset: dataset}, c)
		if err != nil {
			return 0, nil, err
		}
		return c.TotalInsts(), res, nil
	}
	top, _, err := run("BFS")
	if err != nil {
		return TraversalAblation{}, err
	}
	dir, res, err := run("BFSDirOpt")
	if err != nil {
		return TraversalAblation{}, err
	}
	a := TraversalAblation{TopDownInsts: top, DirOptInsts: dir, BottomUpLevels: res.Stats["bottom_up_levels"]}
	if top > 0 {
		a.Saving = 1 - float64(dir)/float64(top)
	}
	return a, nil
}

// PrefetchAblation compares demand-only caching against the adjacent-line
// prefetcher for a streaming workload (DCentr) and a lookup-heavy one
// (BFS). The measured result is itself a finding about the vertex-centric
// layout: because a vertex's property block sits in the line after its
// record, even "pointer-chasing" BFS has a strong next-line pattern, and
// both workloads recover roughly half their L2 demand misses — the layout
// bakes prefetchability in, supporting the paper's argument that data
// representation drives memory behaviour (§2).
type PrefetchAblation struct {
	StreamBaseMPKI float64 // DCentr L2 demand MPKI, no prefetch
	StreamPrefMPKI float64 // DCentr with prefetch
	ChaseBaseMPKI  float64 // BFS, no prefetch
	ChasePrefMPKI  float64 // BFS with prefetch
}

// AblationPrefetch profiles both workloads under both configurations.
func (s *Session) AblationPrefetch(dataset string) (PrefetchAblation, error) {
	run := func(name string, pref bool) (perfmon.Metrics, error) {
		machine := s.Cfg.Machine
		machine.PrefetchNextLine = pref
		wl, err := core.ByName(name)
		if err != nil {
			return perfmon.Metrics{}, err
		}
		m, err := s.profile(wl, input{dataset: dataset}, machine)
		return m, err
	}
	var out PrefetchAblation
	m, err := run("DCentr", false)
	if err != nil {
		return out, err
	}
	out.StreamBaseMPKI = m.L2MPKI
	if m, err = run("DCentr", true); err != nil {
		return out, err
	}
	out.StreamPrefMPKI = m.L2MPKI
	if m, err = run("BFS", false); err != nil {
		return out, err
	}
	out.ChaseBaseMPKI = m.L2MPKI
	if m, err = run("BFS", true); err != nil {
		return out, err
	}
	out.ChasePrefMPKI = m.L2MPKI
	return out, nil
}
