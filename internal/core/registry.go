package core

import (
	"fmt"

	"github.com/graphbig/graphbig-go/internal/bayes"
	"github.com/graphbig/graphbig-go/internal/csr"
	"github.com/graphbig/graphbig-go/internal/gpuwl"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/simt"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// Category is the high-level grouping of Table 4.
type Category string

// The four Table 4 categories.
const (
	CatTraversal Category = "graph traversal"
	CatUpdate    Category = "graph construction/update"
	CatAnalytics Category = "graph analytics"
	CatSocial    Category = "social analysis"
)

// RunContext carries a workload's input. Graph inputs use Graph (+ its
// optional pre-built View inside Opt); Gibbs uses Bayes.
type RunContext struct {
	Graph *property.Graph
	Bayes *bayes.Network
	Opt   workloads.Options
}

// Workload is one Table 4 entry.
type Workload struct {
	Name      string
	Category  Category
	Type      ComputationType
	Algorithm string // the cited algorithm implemented
	// Mutates marks workloads that modify their input graph (callers
	// clone or regenerate between runs).
	Mutates bool
	// NeedsBayes marks workloads running on a Bayesian network instead of
	// a property graph (Gibbs).
	NeedsBayes bool

	runCPU func(*RunContext) (*workloads.Result, error)
	runGPU gpuwl.Runner
}

// Run executes the CPU implementation against ctx.
func (w Workload) Run(ctx *RunContext) (*workloads.Result, error) {
	if w.runCPU == nil {
		return nil, fmt.Errorf("core: %s has no CPU implementation", w.Name)
	}
	if w.NeedsBayes {
		if ctx.Bayes == nil {
			return nil, fmt.Errorf("core: %s requires a Bayesian network input", w.Name)
		}
	} else if ctx.Graph == nil {
		return nil, fmt.Errorf("core: %s requires a graph input", w.Name)
	}
	return w.runCPU(ctx)
}

// GPU reports whether the workload has a GPU implementation.
func (w Workload) GPU() bool { return w.runGPU != nil }

// RunGPU executes the GPU implementation on the given device and CSR graph.
func (w Workload) RunGPU(d *simt.Device, g *csr.Graph) (gpuwl.Result, error) {
	if w.runGPU == nil {
		return gpuwl.Result{}, fmt.Errorf("core: %s has no GPU implementation", w.Name)
	}
	return w.runGPU(d, g), nil
}

// Workloads is the Table 4 registry: 13 CPU workloads, 8 of which also
// have GPU implementations.
var Workloads = []Workload{
	{
		Name: "BFS", Category: CatTraversal, Type: CompStruct,
		Algorithm: "level-synchronous breadth-first search",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.BFS(c.Graph, c.Opt) },
		runGPU:    gpuwl.BFS,
	},
	{
		Name: "DFS", Category: CatTraversal, Type: CompStruct,
		Algorithm: "iterative preorder depth-first search",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.DFS(c.Graph, c.Opt) },
	},
	{
		Name: "GCons", Category: CatUpdate, Type: CompDyn,
		Algorithm: "framework-primitive graph construction",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.GCons(c.Graph, c.Opt) },
	},
	{
		Name: "GUp", Category: CatUpdate, Type: CompDyn,
		Algorithm: "random vertex deletion (graph update)",
		Mutates:   true,
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.GUp(c.Graph, c.Opt) },
	},
	{
		Name: "TMorph", Category: CatUpdate, Type: CompDyn,
		Algorithm: "DAG moralization (topology morphing)",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.TMorph(c.Graph, c.Opt) },
	},
	{
		Name: "SPath", Category: CatAnalytics, Type: CompStruct,
		Algorithm: "Dijkstra's single-source shortest paths",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.SPath(c.Graph, c.Opt) },
		runGPU:    gpuwl.SPath,
	},
	{
		Name: "kCore", Category: CatAnalytics, Type: CompStruct,
		Algorithm: "Matula-Beck k-core decomposition",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.KCore(c.Graph, c.Opt) },
		runGPU:    gpuwl.KCore,
	},
	{
		Name: "CComp", Category: CatAnalytics, Type: CompStruct,
		Algorithm: "BFS components (CPU) / Soman hooking (GPU)",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.CComp(c.Graph, c.Opt) },
		runGPU:    gpuwl.CComp,
	},
	{
		Name: "GColor", Category: CatAnalytics, Type: CompStruct,
		Algorithm: "Luby/Jones-Plassmann graph coloring",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.GColor(c.Graph, c.Opt) },
		runGPU:    gpuwl.GColor,
	},
	{
		Name: "TC", Category: CatAnalytics, Type: CompProp,
		Algorithm: "Schank's ordered triangle counting",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.TC(c.Graph, c.Opt) },
		runGPU:    gpuwl.TC,
	},
	{
		Name: "Gibbs", Category: CatAnalytics, Type: CompProp,
		Algorithm:  "Gibbs sampling for Bayesian inference",
		NeedsBayes: true,
		runCPU:     func(c *RunContext) (*workloads.Result, error) { return workloads.Gibbs(c.Bayes, c.Opt) },
	},
	{
		Name: "DCentr", Category: CatSocial, Type: CompStruct,
		Algorithm: "degree centrality",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.DCentr(c.Graph, c.Opt) },
		runGPU:    gpuwl.DCentr,
	},
	{
		Name: "BCentr", Category: CatSocial, Type: CompStruct,
		Algorithm: "Brandes' betweenness centrality (sampled)",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.BCentr(c.Graph, c.Opt) },
		runGPU:    gpuwl.BCentr,
	},
}

// Extensions lists workloads beyond the paper's Table 4: the
// direction-optimizing BFS behind the traversal-strategy ablation (abl01)
// and the delta-stepping SSSP behind ext04 and the repository benchmark.
var Extensions = []Workload{
	{
		Name: "BFSDirOpt", Category: CatTraversal, Type: CompStruct,
		Algorithm: "direction-optimizing BFS",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.BFSDirOpt(c.Graph, c.Opt) },
	},
	{
		Name: "SPathDelta", Category: CatAnalytics, Type: CompStruct,
		Algorithm: "delta-stepping SSSP",
		runCPU:    func(c *RunContext) (*workloads.Result, error) { return workloads.SPathDelta(c.Graph, c.Opt) },
	},
}

// ByName returns the registered workload with the given name, searching
// the Table 4 registry first and the extensions second.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	for _, w := range Extensions {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("core: unknown workload %q", name)
}

// CPUNames returns the 13 CPU workload names in registry order.
func CPUNames() []string {
	out := make([]string, 0, len(Workloads))
	for _, w := range Workloads {
		out = append(out, w.Name)
	}
	return out
}

// GPUNames returns the 8 GPU workload names in registry order.
func GPUNames() []string {
	out := make([]string, 0, len(Workloads))
	for _, w := range Workloads {
		if w.GPU() {
			out = append(out, w.Name)
		}
	}
	return out
}

// ByType returns the workload names of one computation type.
func ByType(t ComputationType) []string {
	var out []string
	for _, w := range Workloads {
		if w.Type == t {
			out = append(out, w.Name)
		}
	}
	return out
}
