// Package harness defines one experiment per figure/table of the paper's
// evaluation (§5) and regenerates it from the simulators: Fig 1 (framework
// time), Figs 5-8 (CPU characterization), Fig 9 (CPU data sensitivity),
// Figs 10-13 (GPU characterization), and Tables 5/7 (datasets). Each
// experiment returns a Report that renders as an aligned text table; the
// cmd/graphbig-bench binary runs them all and emits EXPERIMENTS.md data.
package harness

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/gpuwl"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/order"
	"github.com/graphbig/graphbig-go/internal/perfmon"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// Config parameterizes an experiment session.
type Config struct {
	// Scale is the fraction of the paper's dataset sizes (Table 7) to
	// generate. 1.0 reproduces the paper's scale; the default keeps a
	// full sweep in CI-friendly time.
	Scale float64
	// Seed drives dataset generation and workload sampling.
	Seed int64
	// Workers bounds native parallelism during generation.
	Workers int
	// Order names the vertex-reordering strategy composed into dataset
	// views (see order.Names). Results are ordering-invariant; only
	// layout and timing change.
	Order string
	// Partitions composes a k-way partition plan into dataset views when
	// > 0; native engine runs then execute subgraph-centrically (one
	// sequential kernel per partition, boundary exchange between
	// supersteps). Results are partition-invariant; instrumented runs
	// ignore the plan, keeping parity streams byte-identical.
	Partitions int
	// Input, when non-empty, is a graph file (SNAP or graphbig v1 edge
	// list, plain or gzipped; see loader.Load) substituted for every
	// generated dataset: Graph() loads it once and serves it under any
	// requested name, so the experiments run on a real downloaded graph
	// instead of the generators. Scale and Seed still label the reports.
	Input string
	// Machine is the simulated CPU (Table 6).
	Machine perfmon.Config
	// CPUClockHz and CPUCores parameterize the Fig 12 CPU-side cost model.
	CPUClockHz float64
	CPUCores   int
	// GPU is the simulated device (Table 6).
	GPU simt.Config
}

// DefaultConfig returns a small-scale session (LDBC ≈ 20K vertices).
func DefaultConfig() Config {
	return Config{
		Scale:      0.02,
		Seed:       42,
		Workers:    0,
		Machine:    perfmon.DefaultConfig(),
		CPUClockHz: 2.4e9,
		CPUCores:   16,
		GPU:        simt.KeplerConfig(),
	}
}

// Session lazily generates and caches datasets, views, CSR conversions and
// per-workload profiling sweeps, so experiments sharing inputs (Figs 5-8)
// pay for them once.
type Session struct {
	Cfg Config

	graphs map[string]*property.Graph
	views  map[string]*property.View
	csrs   map[string]*csr.Graph
	net    *bayes.Network

	cpuSweep  map[string]perfmon.Metrics // by workload name, LDBC input
	dataSweep map[string]perfmon.Metrics // by "workload@dataset"
	gpuRuns   map[string]GPUPoint        // by "workload@dataset"
	orderMPKI map[string]perfmon.Metrics // by "workload@ordering", LDBC input

}

// NewSession returns an empty session over cfg. The simulated GPU L2 and
// CPU L3 are scaled with the dataset scale (floors 64 KiB and 1.5 MiB):
// capacity ratios between the caches and the graph working set are what
// determine achieved throughput (Fig 11) and LLC MPKI (Fig 7), so
// paper-sized caches over scaled-down graphs would absorb traffic that
// misses at paper scale.
func NewSession(cfg Config) *Session {
	if cfg.Scale > 0 && cfg.Scale < 1 {
		l2 := int(float64(cfg.GPU.L2Bytes) * cfg.Scale * 4)
		if l2 < 64<<10 {
			l2 = 64 << 10
		}
		if l2 < cfg.GPU.L2Bytes {
			cfg.GPU.L2Bytes = l2
		}
		// The CPU last-level cache scales the same way (floor 1.5 MiB):
		// L3 MPKI is a capacity ratio effect (Fig 7).
		l3 := int(float64(cfg.Machine.L3.SizeBytes) * cfg.Scale * 4)
		if l3 < 1536<<10 {
			l3 = 1536 << 10
		}
		if l3 < cfg.Machine.L3.SizeBytes {
			cfg.Machine.L3.SizeBytes = l3
		}
	}
	return &Session{
		Cfg:       cfg,
		graphs:    make(map[string]*property.Graph),
		views:     make(map[string]*property.View),
		csrs:      make(map[string]*csr.Graph),
		cpuSweep:  make(map[string]perfmon.Metrics),
		orderMPKI: make(map[string]perfmon.Metrics),
	}
}

// Graph returns the cached dataset, generating it on first use. When
// Cfg.Input names a file, that file is loaded once and substituted
// for every dataset name (mutating workloads still clone, so the shared
// graph stays pristine).
func (s *Session) Graph(name string) (*property.Graph, error) {
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	if s.Cfg.Input != "" {
		g, ok := s.graphs["\x00input"]
		if !ok {
			var err error
			if g, err = loader.Load(s.Cfg.Input); err != nil {
				return nil, err
			}
			s.graphs["\x00input"] = g
		}
		s.graphs[name] = g
		return g, nil
	}
	d, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	g := d.Generate(s.Cfg.Scale, s.Cfg.Seed, s.Cfg.Workers)
	s.graphs[name] = g
	return g, nil
}

// View returns the cached dense view of the dataset.
func (s *Session) View(name string) (*property.View, error) {
	if v, ok := s.views[name]; ok {
		return v, nil
	}
	g, err := s.Graph(name)
	if err != nil {
		return nil, err
	}
	ord, err := order.ByName(s.Cfg.Order)
	if err != nil {
		return nil, err
	}
	v := g.ViewWith(property.ViewOpts{
		Workers:    s.Cfg.Workers,
		Order:      ord,
		Partitions: s.Cfg.Partitions,
	})
	s.views[name] = v
	return v, nil
}

// CSR returns the cached CSR conversion of the dataset (the GPU populate
// step of §4.1).
func (s *Session) CSR(name string) (*csr.Graph, error) {
	if c, ok := s.csrs[name]; ok {
		return c, nil
	}
	g, err := s.Graph(name)
	if err != nil {
		return nil, err
	}
	v, err := s.View(name)
	if err != nil {
		return nil, err
	}
	c := csr.FromProperty(g, v)
	s.csrs[name] = c
	return c, nil
}

// Bayes returns the MUNIN-like inference input (scale-independent).
func (s *Session) Bayes() *bayes.Network {
	if s.net == nil {
		s.net = bayes.MUNIN()
	}
	return s.net
}

// ProfileCPU runs one workload instrumented on the named dataset and
// returns the counter report. Mutating workloads run against a clone.
func (s *Session) ProfileCPU(wl core.Workload, dataset string) (perfmon.Metrics, *workloads.Result, error) {
	prof := perfmon.NewProfile(s.Cfg.Machine)
	opt := workloads.Options{Seed: s.Cfg.Seed}
	ctx := &core.RunContext{Opt: opt}
	if wl.NeedsBayes {
		net := s.Bayes()
		net.SetTracker(prof)
		defer net.SetTracker(nil)
		ctx.Bayes = net
	} else {
		g, err := s.Graph(dataset)
		if err != nil {
			return perfmon.Metrics{}, nil, err
		}
		vw, err := s.View(dataset)
		if err != nil {
			return perfmon.Metrics{}, nil, err
		}
		if wl.Mutates {
			g = property.Clone(g)
			vw = g.View()
		}
		g.SetTracker(prof)
		defer g.SetTracker(nil)
		ctx.Graph = g
		ctx.Opt.View = vw
	}
	res, err := wl.Run(ctx)
	if err != nil {
		return perfmon.Metrics{}, nil, err
	}
	return prof.Report(), res, nil
}

// CPUSweep profiles all 13 CPU workloads on LDBC (Gibbs on MUNIN), caching
// the results — Figures 1 and 5-8 all read from this sweep.
func (s *Session) CPUSweep() (map[string]perfmon.Metrics, error) {
	if len(s.cpuSweep) > 0 {
		return s.cpuSweep, nil
	}
	for _, wl := range core.Workloads {
		if !wl.CPU {
			continue
		}
		m, _, err := s.ProfileCPU(wl, "ldbc")
		if err != nil {
			return nil, fmt.Errorf("harness: profiling %s: %w", wl.Name, err)
		}
		s.cpuSweep[wl.Name] = m
	}
	return s.cpuSweep, nil
}

// RunGPU executes one GPU workload on a fresh device over the dataset's
// CSR form, returning the workload result (with device counters inside).
func (s *Session) RunGPU(wl core.Workload, dataset string) (gpuwl.Result, *simt.Device, error) {
	c, err := s.CSR(dataset)
	if err != nil {
		return gpuwl.Result{}, nil, err
	}
	d := simt.NewDevice(s.Cfg.GPU)
	res, err := wl.RunGPU(d, c)
	if err != nil {
		return gpuwl.Result{}, nil, err
	}
	return res, d, nil
}
