// Package graphbig is a from-scratch Go reproduction of the GraphBIG
// benchmark suite ("GraphBIG: Understanding Graph Computing in the Context
// of Industrial Solutions", SC'15): an industrial-style vertex-centric
// property-graph framework, the 13 CPU and 8 GPU workloads, generators for
// the five experiment datasets, and the simulated measurement substrates
// (a CPU microarchitecture model and a SIMT GPU model) that regenerate
// every figure and table of the paper's evaluation.
//
// The facade re-exports the suite's primary entry points; the full API
// lives in the internal packages:
//
//	internal/property  — the dynamic vertex-centric graph framework
//	internal/engine    — unified direction-optimizing frontier engine
//	internal/csr       — CSR/COO static representations
//	internal/gen       — dataset generators (Twitter, Knowledge, Gene, Road, LDBC, R-MAT)
//	internal/bayes     — Bayesian networks + MUNIN-like generator
//	internal/workloads — the 13 CPU workloads
//	internal/gpuwl     — the 8 GPU workloads
//	internal/perfmon   — CPU cache/TLB/branch/cycle model (the "counters")
//	internal/simt      — SIMT GPU divergence/throughput model
//	internal/core      — taxonomy + workload registry
//	internal/harness   — one experiment per paper figure/table
//
// Quick start:
//
//	g := graphbig.Dataset("ldbc", 0.02, 42)
//	res, err := graphbig.Run("BFS", g, graphbig.Options{})
//
// See examples/ for complete programs and cmd/graphbig-bench for the
// experiment runner.
package graphbig

import (
	"github.com/graphbig/graphbig-go/internal/core"
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/harness"
	"github.com/graphbig/graphbig-go/internal/partition"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// Graph is the vertex-centric dynamic property graph (see
// internal/property for the full framework API).
type Graph = property.Graph

// Vertex is a graph vertex; properties and outgoing edges live inside it.
type Vertex = property.Vertex

// Edge is one outgoing edge record.
type Edge = property.Edge

// VertexID identifies a vertex.
type VertexID = property.VertexID

// Options carries workload parameters (workers, source, samples, seed).
type Options = workloads.Options

// Result is a workload outcome.
type Result = workloads.Result

// Workload is a Table 4 registry entry.
type Workload = core.Workload

// Session caches datasets and simulator sweeps for experiments.
type Session = harness.Session

// View is an index-resolved snapshot of a graph: dense vertex indices plus
// flat CSR-like adjacency arrays that native hot loops iterate directly.
type View = property.View

// ViewOpts configures Graph.ViewWith: construction parallelism plus an
// optional locality ordering composed into the dense index space.
type ViewOpts = property.ViewOpts

// OrderFunc computes a vertex-reordering permutation (perm[new] = old)
// from a resolved CSR; internal/order provides degree, hub-clustering,
// RCM and cluster strategies.
type OrderFunc = property.OrderFunc

// PartitionPlan describes a k-way contiguous partitioning of a view's
// index space: per-partition vertex ranges, ownership, and the boundary
// vertices whose edges cross partitions. Build one by setting
// ViewOpts.Partitions; it describes the view and changes no engine run.
type PartitionPlan = partition.Plan

// Engine is the unified direction-optimizing frontier engine; workload
// authors build traversals on it (see internal/engine).
type Engine = engine.Engine

// TraversalSpec configures one Engine.Traverse call.
type TraversalSpec = engine.Spec

// TraversalStats summarizes one Engine.Traverse call.
type TraversalStats = engine.Stats

// NewEngine returns a frontier engine over g's view; workers <= 0 selects
// GOMAXPROCS, and instrumented graphs always run single-threaded.
func NewEngine(g *Graph, vw *View, workers int) *Engine {
	return engine.New(g, vw, workers)
}

// New returns an empty undirected property graph.
func New() *Graph { return property.New(property.Options{}) }

// NewDirected returns an empty directed graph with in-edge tracking.
func NewDirected() *Graph {
	return property.New(property.Options{Directed: true, TrackInEdges: true})
}

// Dataset generates one of the five experiment datasets ("twitter",
// "knowledge", "watson-gene", "ca-road", "ldbc") at the given fraction of
// the paper-scale size. It panics on an unknown name; use gen.ByName for
// error handling.
func Dataset(name string, scale float64, seed int64) *Graph {
	d, err := gen.ByName(name)
	if err != nil {
		panic(err)
	}
	return d.Generate(scale, seed, 0)
}

// Workloads lists the Table 4 registry.
func Workloads() []Workload { return core.Workloads }

// Run executes the named CPU workload on g.
func Run(workload string, g *Graph, opt Options) (*Result, error) {
	wl, err := core.ByName(workload)
	if err != nil {
		return nil, err
	}
	return wl.Run(&core.RunContext{Graph: g, Opt: opt})
}

// NewSession returns an experiment session at the given dataset scale.
func NewSession(scale float64, seed int64) *Session {
	cfg := harness.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed
	return harness.NewSession(cfg)
}
