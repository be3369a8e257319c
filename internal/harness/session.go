// Package harness defines one experiment per figure/table of the paper's
// evaluation (§5) and regenerates it from the simulators: Fig 1 (framework
// time), Figs 5-8 (CPU characterization), Fig 9 (CPU data sensitivity),
// Figs 10-13 (GPU characterization), and Tables 5/7 (datasets), then the
// extensions (ext01-ext04) and the design-choice ablations (abl01). Each
// experiment returns a Report that renders as an aligned text table; the
// cmd/graphbig-bench binary runs them all and emits EXPERIMENTS.md data.
//
// A report is a function of the session's configuration alone, not of
// which experiments ran before it in the session: every instrumented run
// goes through Session.run, which starts it from its dataset's fixed
// simulated layout, so a (workload, dataset) profile is computed once and
// every figure that reads it reads the same numbers.
package harness

import (
	"fmt"
	"path/filepath"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/mem"
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
	// Order names the vertex-reordering strategy composed into dataset
	// views (see order.Names). Results are ordering-invariant; only
	// layout and timing change.
	Order string
	// Input, when non-empty, is a graph file (SNAP or graphbig v1 edge
	// list, plain or gzipped; see loader.Load) substituted for every
	// generated dataset: the session's one dataset, named after the file,
	// whatever dataset name an experiment asks for, so the experiments run
	// on a real downloaded graph instead of the generators. Scale and Seed
	// still label the reports.
	Input string
	// Machine is the simulated CPU (Table 6).
	Machine perfmon.Config
	// CPUClockHz is the clock of the Fig 12 CPU-side cost model.
	CPUClockHz float64
	// GPU is the simulated device (Table 6).
	GPU simt.Config
}

// DefaultConfig returns a small-scale session (LDBC ≈ 20K vertices).
func DefaultConfig() Config {
	return Config{
		Scale:      0.02,
		Seed:       42,
		Machine:    perfmon.DefaultConfig(),
		CPUClockHz: 2.4e9,
		GPU:        simt.KeplerConfig(),
	}
}

// Session lazily generates and caches datasets, views, CSR conversions and
// per-workload profiles, so experiments sharing inputs (Figs 5-9, 12,
// ext01, abl01) pay for them once. Every per-dataset cache is keyed by
// the dataset's session name (see dataset).
type Session struct {
	Cfg Config

	graphs map[string]*property.Graph
	marks  map[*property.Graph]uint64 // arena position after the fixed layout
	views  map[string]*property.View
	csrs   map[string]*csr.Graph
	net    *bayes.Network

	profiles map[string]perfmon.Metrics // by "workload@dataset"
	gpuRuns  map[string]GPUPoint        // by "workload@dataset"
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
		Cfg:      cfg,
		graphs:   make(map[string]*property.Graph),
		marks:    make(map[*property.Graph]uint64),
		views:    make(map[string]*property.View),
		csrs:     make(map[string]*csr.Graph),
		profiles: make(map[string]perfmon.Metrics),
		gpuRuns:  make(map[string]GPUPoint),
	}
}

// dataset returns the session name of the requested dataset: the name
// itself, or with Cfg.Input set the input file's base name, whatever was
// asked for.
func (s *Session) dataset(name string) string {
	if s.Cfg.Input != "" {
		return filepath.Base(s.Cfg.Input)
	}
	return name
}

// DatasetNames lists the session's datasets: the five experiment datasets
// in Table 7 order, or the input file alone when Cfg.Input is set.
func (s *Session) DatasetNames() []string {
	if s.Cfg.Input != "" {
		return []string{s.dataset("")}
	}
	names := make([]string, len(gen.Catalog))
	for i, d := range gen.Catalog {
		names[i] = d.Name
	}
	return names
}

// Graph returns the cached dataset, generating it (or loading Cfg.Input)
// on first use. Mutating workloads clone it, so the shared graph stays
// pristine. A new graph gets its fixed layout (see layout).
func (s *Session) Graph(name string) (*property.Graph, error) {
	name = s.dataset(name)
	if g, ok := s.graphs[name]; ok {
		return g, nil
	}
	var g *property.Graph
	if s.Cfg.Input != "" {
		var err error
		if g, err = loader.Load(s.Cfg.Input); err != nil {
			return nil, err
		}
	} else {
		d, err := gen.ByName(name)
		if err != nil {
			return nil, err
		}
		g = d.Generate(s.Cfg.Scale, s.Cfg.Seed, 0)
	}
	s.layout(g)
	s.graphs[name] = g
	return g, nil
}

// layout gives a new session graph its fixed simulated starting state:
// the view index field, then every workload result field, takes its slot,
// and the arena position after that is recorded. Every instrumented run
// and CSR build on the graph rewinds the arena to that mark first, so
// neither the slots nor the addresses a run sees depend on what ran
// before it.
func (s *Session) layout(g *property.Graph) {
	g.EnsureField(property.SysIndexField)
	for _, f := range workloads.ResultFields {
		g.EnsureField(f)
	}
	s.marks[g] = g.Arena().Used()
}

// View returns the cached dense view of the dataset.
func (s *Session) View(name string) (*property.View, error) {
	name = s.dataset(name)
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
	v := g.ViewWith(property.ViewOpts{Order: ord})
	s.views[name] = v
	return v, nil
}

// CSR returns the cached CSR conversion of the dataset (the GPU populate
// step of §4.1). Its simulated arrays are placed from the dataset's layout
// mark, like every instrumented run's structures.
func (s *Session) CSR(name string) (*csr.Graph, error) {
	name = s.dataset(name)
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
	g.Arena().Rewind(s.marks[g])
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

// input names the graph an instrumented run reads: a session dataset, or
// a private graph and view that a caller built for this run alone.
type input struct {
	dataset string
	g       *property.Graph
	vw      *property.View
}

// run is the one harness function that installs a tracker. It runs wl
// once, single-threaded, with tr observing every event, and removes tr
// afterwards:
//   - a Bayes workload reads the session's MUNIN network;
//   - on a session dataset, the graph's arena is first rewound to its
//     layout mark, so the run sees the same simulated state whatever ran
//     before it;
//   - a mutating workload runs on a clone, leaving its input as it was.
func (s *Session) run(wl core.Workload, in input, tr mem.Tracker) (*workloads.Result, error) {
	ctx := &core.RunContext{Opt: workloads.Options{Seed: s.Cfg.Seed}}
	if wl.NeedsBayes {
		ctx.Bayes = s.Bayes()
		ctx.Bayes.SetTracker(tr)
		defer ctx.Bayes.SetTracker(nil)
		return wl.Run(ctx)
	}
	g, vw := in.g, in.vw
	if in.dataset != "" {
		var err error
		if g, err = s.Graph(in.dataset); err != nil {
			return nil, err
		}
		if vw, err = s.View(in.dataset); err != nil {
			return nil, err
		}
		g.Arena().Rewind(s.marks[g])
	}
	if wl.Mutates {
		g = property.Clone(g)
		vw = g.View()
	}
	g.SetTracker(tr)
	defer g.SetTracker(nil)
	ctx.Graph, ctx.Opt.View = g, vw
	return wl.Run(ctx)
}

// profile runs wl on in under the given machine model and returns the
// counter report.
func (s *Session) profile(wl core.Workload, in input, machine perfmon.Config) (perfmon.Metrics, error) {
	prof := perfmon.NewProfile(machine)
	if _, err := s.run(wl, in, prof); err != nil {
		return perfmon.Metrics{}, err
	}
	return prof.Report(), nil
}

// Profile returns the counters of the named workload on dataset under the
// session machine. Each (workload, dataset) is profiled once per session;
// the CPU sweep, Figs 9 and 12 and ext01 all read the cached run.
func (s *Session) Profile(wlName, dataset string) (perfmon.Metrics, error) {
	dataset = s.dataset(dataset)
	key := wlName + "@" + dataset
	if m, ok := s.profiles[key]; ok {
		return m, nil
	}
	wl, err := core.ByName(wlName)
	if err != nil {
		return perfmon.Metrics{}, err
	}
	m, err := s.profile(wl, input{dataset: dataset}, s.Cfg.Machine)
	if err != nil {
		return perfmon.Metrics{}, fmt.Errorf("harness: %s on %s: %w", wlName, dataset, err)
	}
	s.profiles[key] = m
	return m, nil
}

// CPUSweep profiles all 13 CPU workloads on LDBC (Gibbs on MUNIN), keyed
// by workload name — Figures 1 and 5-8 all read from this sweep.
func (s *Session) CPUSweep() (map[string]perfmon.Metrics, error) {
	sweep := make(map[string]perfmon.Metrics)
	for _, name := range core.CPUNames() {
		m, err := s.Profile(name, "ldbc")
		if err != nil {
			return nil, err
		}
		sweep[name] = m
	}
	return sweep, nil
}
