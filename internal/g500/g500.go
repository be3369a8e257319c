// Package g500 implements a Graph500-style BFS benchmark harness over the
// GraphBIG framework: R-MAT generation, sampled search keys, validated
// BFS runs, and the TEPS (traversed edges per second) metric with its
// harmonic-mean statistics. The paper's Table 3 positions GraphBIG
// against Graph 500 — "because of its special purpose, it provides
// limited number of workloads"; this package provides that special
// purpose on top of the suite so the two can be compared directly.
package g500

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// Config follows the Graph500 conventions.
type Config struct {
	Scale      int // log2 vertex count
	EdgeFactor int // edges per vertex (spec: 16)
	Roots      int // BFS runs (spec: 64)
	Seed       int64
	Workers    int
}

// DefaultConfig returns a laptop-scale run (spec scale is 26+).
func DefaultConfig() Config {
	return Config{Scale: 14, EdgeFactor: 16, Roots: 16, Seed: 2, Workers: 0}
}

// RootResult is one BFS timing.
type RootResult struct {
	Root    property.VertexID
	Reached int64
	Edges   int64 // edges traversed (within the reached component)
	Seconds float64
	TEPS    float64
}

// Result is the full benchmark report.
type Result struct {
	Cfg          Config
	Vertices     int
	Edges        int
	ConstructSec float64
	Roots        []RootResult
	HarmonicTEPS float64
	MedianTEPS   float64
}

// Run generates the R-MAT graph and times BFS from sampled roots,
// validating each traversal's parent structure (level consistency).
func Run(cfg Config) (*Result, error) {
	if cfg.Scale < 3 {
		return nil, fmt.Errorf("g500: scale %d too small", cfg.Scale)
	}
	if cfg.Roots < 1 {
		return nil, fmt.Errorf("g500: %d roots, want at least 1", cfg.Roots)
	}
	start := time.Now()
	g := gen.RMAT(cfg.Scale, cfg.EdgeFactor, cfg.Seed, cfg.Workers)
	vw := g.View()
	res := &Result{
		Cfg:          cfg,
		Vertices:     g.VertexCount(),
		Edges:        g.EdgeCount(),
		ConstructSec: time.Since(start).Seconds(),
	}

	// Sampled search keys: non-isolated vertices, spread deterministically.
	var roots []property.VertexID
	step := vw.Len()/cfg.Roots + 1
	for i := 0; i < vw.Len() && len(roots) < cfg.Roots; i += step {
		if vw.Verts[i].OutDegree() > 0 {
			roots = append(roots, vw.Verts[i].ID)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("g500: no non-isolated roots found")
	}

	lvl := g.EnsureField(workloads.BFSLevelField)
	var teps []float64
	for _, root := range roots {
		t0 := time.Now()
		r, err := workloads.BFS(g, workloads.Options{
			Source:  root,
			Workers: cfg.Workers,
			View:    vw,
		})
		if err != nil {
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		// Edges traversed: sum of degrees of reached vertices / 2
		// (undirected), the Graph500 counting rule.
		var edges int64
		for _, v := range vw.Verts {
			if v.Prop(lvl) >= 0 {
				edges += int64(v.OutDegree())
			}
		}
		edges /= 2
		if err := validate(g, vw, lvl, root); err != nil {
			return nil, fmt.Errorf("g500: root %d: %w", root, err)
		}
		rr := RootResult{
			Root: root, Reached: r.Visited, Edges: edges, Seconds: sec,
		}
		if sec > 0 {
			rr.TEPS = float64(edges) / sec
		}
		res.Roots = append(res.Roots, rr)
		teps = append(teps, rr.TEPS)
	}
	res.HarmonicTEPS = harmonic(teps)
	sort.Float64s(teps)
	res.MedianTEPS = teps[len(teps)/2]
	return res, nil
}

// validate applies the Graph500 level checks: the root has level 0, every
// reached vertex except the root has a neighbor one level closer, and no
// edge spans more than one level.
func validate(g *property.Graph, vw *property.View, lvl int, root property.VertexID) error {
	rv := g.FindVertex(root)
	if rv == nil || rv.Prop(lvl) != 0 {
		return fmt.Errorf("root level != 0")
	}
	for _, v := range vw.Verts {
		lv := v.Prop(lvl)
		if lv < 0 {
			continue
		}
		hasParent := v.ID == root
		for _, e := range v.Out {
			nb := g.FindVertex(e.To)
			ln := nb.Prop(lvl)
			if ln >= 0 && math.Abs(ln-lv) > 1 {
				return fmt.Errorf("edge %d-%d spans levels %v..%v", v.ID, e.To, lv, ln)
			}
			if ln == lv-1 {
				hasParent = true
			}
		}
		if !hasParent {
			return fmt.Errorf("vertex %d at level %v has no parent", v.ID, lv)
		}
	}
	return nil
}

func harmonic(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += 1 / x
			n++
		}
	}
	if n == 0 || s == 0 {
		return 0
	}
	return float64(n) / s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
