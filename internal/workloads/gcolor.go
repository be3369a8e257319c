package workloads

import (
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/property"
)

// ColorField is the vertex property holding the assigned color.
const ColorField = "gcolor.color"

// gcolorMaxRounds caps GColor's rounds. A round colors at least the
// highest-priority uncolored vertex, so the cap binds only on a graph that
// needs more rounds than this; its remaining vertices stay at -1.
const gcolorMaxRounds = 4 * 1024

// GColor colors the graph with the Luby/Jones-Plassmann parallel heuristic
// the paper cites [14]: each round, every uncolored vertex whose random
// priority beats all of its uncolored neighbors takes the smallest color
// absent from its neighborhood. Rounds repeat until no vertex remains.
// Per-vertex work is numeric (priority compares, color-set scans) on top
// of neighbor property reads, giving GColor its CompProp-leaning profile.
//
// The native path runs each round in two engine passes over the resolved
// Adj arrays — decide local maxima, then color the winners — so no worker
// ever reads a color slot another is writing (winners form an independent
// set). A vertex only wins once every higher-priority neighbor is colored,
// so its color is the priority-order greedy color either way and the final
// coloring matches the framework variant exactly.
func GColor(g *property.Graph, opt Options) (*Result, error) {
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	col := g.EnsureField(ColorField)
	prio := func(id property.VertexID) uint64 { return mix64(uint64(id) + uint64(opt.Seed)) }
	if g.Tracker() != nil {
		// The tracked rounds read the field to find the uncolored vertices.
		for _, v := range vw.Verts {
			v.SetPropRaw(col, -1)
		}
		return gcolorTracked(g, vw, col, prio), nil
	}

	eng := engine.New(g, vw, opt.Workers)
	colors := make([]int64, n)
	for i := range colors {
		colors[i] = -1
	}
	work := make([]int32, n)
	for i := range work {
		work[i] = narrow.Index32(i)
	}
	// win[k] records whether work[k] won its round. It is indexed by work
	// position (not vertex) so the phase-1 write is provably item-distinct;
	// both phases scan the same work slice, so positions agree.
	win := make([]bool, n)

	rounds := 0
	var colored int64
	var maxColorA atomic.Int64
	for len(work) > 0 && rounds < gcolorMaxRounds {
		rounds++
		// Phase 1: local-maximum test among uncolored neighbors.
		eng.ForItems(len(work), 32, func(k int) {
			vi := work[k]
			p := prio(vw.Verts[vi].ID)
			isMax := true
			for _, wi := range vw.Adj(vi) {
				if colors[wi] >= 0 {
					continue
				}
				np := prio(vw.Verts[wi].ID)
				if np > p || (np == p && vw.Verts[wi].ID > vw.Verts[vi].ID) {
					isMax = false
					break
				}
			}
			win[k] = isMax
		})
		// Phase 2: winners (an independent set) take the smallest color
		// absent from their colored neighborhood.
		nextWork := concurrent.NewFrontier(len(work))
		eng.ForItems(len(work), 32, func(k int) {
			vi := work[k]
			if !win[k] {
				nextWork.Push(vi)
				return
			}
			var used uint64
			overflow := false
			for _, wi := range vw.Adj(vi) {
				if c := colors[wi]; c >= 0 {
					if c < 64 {
						used |= 1 << uint(c)
					} else {
						overflow = true
					}
				}
			}
			c := int64(0)
			for used&(1<<uint(c)) != 0 {
				c++
			}
			if overflow && c >= 64 {
				// Rare dense-neighborhood fallback: rescan into a widened
				// bitset (colors are dense, so the set stays small).
				var wide []uint64
				for _, wi := range vw.Adj(vi) {
					if cc := colors[wi]; cc >= 0 {
						word := int(cc >> 6)
						for word >= len(wide) {
							wide = append(wide, 0)
						}
						wide[word] |= 1 << uint(cc&63)
					}
				}
				for c = 64; ; c++ {
					word := int(c >> 6)
					if word >= len(wide) || wide[word]&(1<<uint(c&63)) == 0 {
						break
					}
				}
			}
			colors[vi] = c
			for {
				m := maxColorA.Load()
				if c <= m || maxColorA.CompareAndSwap(m, c) {
					break
				}
			}
		})
		colored += int64(len(work) - nextWork.Len())
		work = append(work[:0], nextWork.Slice()...)
	}

	property.SetColumn(vw, col, colors)
	sum := 0.0
	for i := range colors {
		sum += float64(colors[i])
	}
	return &Result{
		Workload: "GColor",
		Visited:  colored,
		Checksum: sum,
		Stats: map[string]float64{
			"rounds": float64(rounds),
			"colors": float64(maxColorA.Load() + 1),
		},
	}, nil
}

// gcolorTracked is the original one-pass framework formulation retained
// for instrumented runs: single-threaded, in work-list order.
func gcolorTracked(g *property.Graph, vw *property.View, col int, prio func(property.VertexID) uint64) *Result {
	n := vw.Len()
	t := g.Tracker()

	work := make([]int32, n)
	for i := range work {
		work[i] = narrow.Index32(i)
	}
	next := make([]int32, 0, n)
	wSim := newSimArr(g, n, 4)

	rounds := 0
	var colored, maxColor int64
	for len(work) > 0 && rounds < gcolorMaxRounds {
		rounds++
		for k, vi := range work {
			wSim.Ld(k)
			v := vw.Verts[vi]
			p := prio(v.ID)
			inst(t, 4)
			// Local maximum test among uncolored neighbors.
			isMax := true
			var used uint64 // bitset of low neighbor colors
			overflow := false
			g.Neighbors(v, func(_ int, e *property.Edge) bool {
				nb := g.FindVertex(e.To)
				if nb == nil {
					return true
				}
				c := g.GetProp(nb, col)
				uncolored := c < 0
				branch(t, siteColor, uncolored)
				inst(t, 3)
				if uncolored {
					np := prio(nb.ID)
					if np > p || (np == p && nb.ID > v.ID) {
						isMax = false
						return false
					}
				} else if int(c) < 64 {
					used |= 1 << uint(c)
				} else {
					overflow = true
				}
				return true
			})
			branch(t, siteColor, isMax)
			if !isMax {
				next = append(next, vi)
				wSim.St(len(next) - 1)
				continue
			}
			// Smallest color not used by any colored neighbor.
			c := int64(0)
			for used&(1<<uint(c)) != 0 {
				c++
				inst(t, 2)
			}
			if overflow && c >= 64 {
				// Rare dense-neighborhood fallback: rescan for exact set.
				c = exactSmallestColor(g, v, col)
			}
			g.SetProp(v, col, float64(c))
			colored++
			maxColor = max(maxColor, c)
		}
		work, next = next, work[:0]
	}

	sum := 0.0
	for _, v := range vw.Verts {
		sum += v.Prop(col)
	}
	return &Result{
		Workload: "GColor",
		Visited:  colored,
		Checksum: sum,
		Stats: map[string]float64{
			"rounds": float64(rounds),
			"colors": float64(maxColor + 1),
		},
	}
}

// exactSmallestColor handles neighborhoods using colors beyond the 64-bit
// fast-path bitset.
func exactSmallestColor(g *property.Graph, v *property.Vertex, col int) int64 {
	used := make(map[int64]bool, v.OutDegree())
	g.Neighbors(v, func(_ int, e *property.Edge) bool {
		nb := g.FindVertex(e.To)
		if nb == nil {
			return true
		}
		if c := g.GetProp(nb, col); c >= 0 {
			used[int64(c)] = true
		}
		return true
	})
	for c := int64(0); ; c++ {
		if !used[c] {
			return c
		}
	}
}
