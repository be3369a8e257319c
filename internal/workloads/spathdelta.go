package workloads

import (
	"fmt"
	"math"

	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

// SPathDelta is the delta-stepping single-source shortest-path algorithm
// (Meyer & Sanders), the parallel alternative to the Table 4 Dijkstra
// implementation: vertices are bucketed by tentative distance in bands of
// width delta, and each bucket's relaxations run in parallel until it
// drains. Native runs are Engine.SSSP (DESIGN.md §12); instrumented runs
// drain the same engine.Buckets with the framework walk as the relax body.
// Distances equal Dijkstra's in both modes.
//
// opt.Delta overrides the bucket width, which by default is tunedDelta's
// (legacyVertexDelta's when instrumented). An override that is NaN,
// infinite, negative or narrower than minDelta is an error.
func SPathDelta(g *property.Graph, opt Options) (*Result, error) {
	// NaN fails `delta <= 0` below and would reach the kernels as a width;
	// !(d >= 0) catches it together with the negatives.
	if d := opt.Delta; !(d >= 0) || math.IsInf(d, 1) || d != 0 && d < minDelta {
		return nil, fmt.Errorf("workloads: SPathDelta: delta %v is neither 0 (sampled) nor a finite width >= %g", d, minDelta)
	}
	vw := view(g, &opt)
	srcIdx, err := pick(vw, opt)
	if err != nil {
		return nil, err
	}
	n := vw.Len()
	distF := g.EnsureField(SPathDistField)
	idxSlot := g.EnsureField(property.SysIndexField)
	t := g.Tracker()

	delta := opt.Delta
	if delta <= 0 {
		if t != nil {
			delta = legacyVertexDelta(vw, n)
		} else {
			delta = tunedDelta(vw)
		}
	}

	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[srcIdx] = 0
	var st engine.SSSPStats
	if t != nil {
		st = trackedSPathDelta(g, vw, dist, delta, srcIdx, distF, idxSlot, t)
	} else {
		st = engine.New(g, vw, opt.Workers).SSSP(dist, delta, srcIdx)
	}

	property.SetColumn(vw, distF, dist)
	settled := int64(0)
	sum := 0.0
	for i := range dist {
		if !math.IsInf(dist[i], 1) {
			settled++
			sum += dist[i]
		}
	}
	return &Result{
		Workload: "SPathDelta",
		Visited:  settled,
		Checksum: sum,
		Stats: map[string]float64{
			"delta":   delta,
			"buckets": float64(st.Buckets),
			"relaxed": float64(st.Relaxed),
		},
	}, nil
}

// minDelta is the narrowest bucket width accepted as an override. The
// kernels no longer need a bound — bucket indices saturate and drains jump
// over empty buckets — but the width comes from outside the program, and
// one that puts a unit weight 2^31 buckets wide is a mistake, not a tuning.
const minDelta = 1.0 / (1 << 31)

// sampleDelta estimates the mean edge weight with a deterministic strided
// sample over the view's flat weight array: small graphs are covered
// whole, and hubs weigh no more than their edges. The result is clamped
// to >= 1, the customary delta floor.
func sampleDelta(wts []float64) float64 {
	const budget = 4096
	stride := len(wts)/budget + 1
	var sum float64
	var cnt int
	for i := 0; i < len(wts); i += stride {
		sum += wts[i]
		cnt++
	}
	delta := 1.0
	if cnt > 0 {
		delta = sum / float64(cnt)
	}
	if delta < 1 {
		delta = 1
	}
	return delta
}

// tunedDelta scales the sampled mean edge weight by the view's average
// out-degree — Meyer & Sanders' delta = Theta(weight/degree) rule: on dense
// graphs a mean-weight-wide bucket admits far more vertices than a round
// settles, and the kernel re-relaxes the same rows bucket after bucket.
// The floor of 0.25 stops sparse-but-heavy views from degenerating into
// Dijkstra's one-vertex rounds.
func tunedDelta(vw *property.View) float64 {
	mean := sampleDelta(vw.NbrW)
	deg := float64(len(vw.NbrW)) / float64(vw.Len())
	if deg < 1 {
		deg = 1
	}
	delta := mean / deg
	if delta < 0.25 {
		delta = 0.25
	}
	return delta
}

// legacyVertexDelta is the original per-vertex sampling heuristic,
// preserved verbatim for instrumented runs: the bucket layout steers
// the relaxation order, and the simulated event stream (parity.json)
// is pinned bit-for-bit to it.
func legacyVertexDelta(vw *property.View, n int) float64 {
	var wsum float64
	var wcnt int
	for i := 0; i < n && wcnt < 4096; i += n/64 + 1 {
		for _, e := range vw.Verts[i].Out {
			wsum += e.Weight
			wcnt++
		}
	}
	delta := 1.0
	if wcnt > 0 {
		delta = wsum / float64(wcnt)
	}
	if delta < 1 {
		delta = 1
	}
	return delta
}

// trackedSPathDelta drains engine.Buckets with the original framework walk
// as the relax body, so parity.json stays bit-identical. workers() pins
// instrumented runs to one worker: one shard, no lock. SPathDelta's
// write-back then adds +Inf where the walk's SetProps never reached.
func trackedSPathDelta(g *property.Graph, vw *property.View, dist []float64, delta float64, srcIdx int32, distF, idxSlot int, t mem.Tracker) engine.SSSPStats {
	dSim := newSimArr(g, len(dist), 8)
	g.SetProp(vw.Verts[srcIdx], distF, 0)
	q := engine.NewBuckets(delta, 1)
	q.Push(0, 0, srcIdx)
	dSim.St(int(srcIdx))

	var st engine.SSSPStats
	st.Buckets = q.Drain(func(work []int32, b int) {
		for _, ui := range work {
			dSim.Ld(int(ui))
			du := dist[ui]
			if q.Of(du) < b {
				continue // stale entry; already settled in a lower bucket
			}
			g.Neighbors(vw.Verts[ui], func(_ int, e *property.Edge) bool {
				nb := g.FindVertex(e.To)
				if nb == nil {
					return true
				}
				wi := int32(g.GetProp(nb, idxSlot))
				nd := du + e.Weight
				inst(t, 3)
				better := nd < dist[wi]
				branch(t, siteRelax, better)
				if better {
					dist[wi] = nd
					dSim.St(int(wi))
					g.SetProp(nb, distF, nd)
					q.Push(0, nd, wi)
					st.Relaxed++
				}
				return true
			})
		}
	})
	return st
}
