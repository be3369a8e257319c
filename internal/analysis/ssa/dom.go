// Package ssa constructs pruned static single-assignment form over the
// analysis package's control-flow graphs: an iterative dominator tree
// with dominance frontiers (this file), liveness-pruned phi placement,
// and def-use chains (ssa.go). Results are cached per Module, alongside
// the points-to cache, so each function's SSA is built once.
//
// The construction deliberately stays at the AST level — values are
// *types.Var versions, definitions carry their defining expression — so
// analyzers keep reporting positions and reading syntax exactly as they
// do against the CFG layer. Variables whose versions cannot be tracked
// soundly (address-taken, or reassigned inside a nested function
// literal) are left out of renaming and reported as Unversioned.
package ssa

import (
	"github.com/graphbig/graphbig-go/internal/analysis"
)

// DomTree is the dominator tree of one CFG, built with the iterative
// Cooper–Harvey–Kennedy algorithm over reverse postorder, plus the
// dominance frontiers phi placement needs. Unreachable blocks have no
// dominator, empty frontiers, and are dominated by nothing.
type DomTree struct {
	cfg *analysis.CFG
	// post[b.Index] is b's postorder number; -1 for unreachable blocks.
	post []int
	// rpo holds the reachable blocks in reverse postorder.
	rpo []*analysis.Block
	// idom[b.Index] is b's immediate dominator; nil for the entry block
	// and for unreachable blocks.
	idom     []*analysis.Block
	children [][]*analysis.Block
	frontier [][]*analysis.Block
	// pre/last number a preorder DFS over the dominator tree, giving O(1)
	// Dominates via interval containment.
	pre, last []int
}

// BuildDom computes the dominator tree and dominance frontiers of c.
func BuildDom(c *analysis.CFG) *DomTree {
	n := len(c.Blocks)
	d := &DomTree{
		cfg:      c,
		post:     make([]int, n),
		idom:     make([]*analysis.Block, n),
		children: make([][]*analysis.Block, n),
		frontier: make([][]*analysis.Block, n),
		pre:      make([]int, n),
		last:     make([]int, n),
	}
	for i := range d.post {
		d.post[i] = -1
		d.pre[i] = -1
	}
	po := c.PostOrder()
	d.rpo = make([]*analysis.Block, len(po))
	for i, b := range po {
		d.post[b.Index] = i
		d.rpo[len(po)-1-i] = b
	}

	// Iterate idom to a fixed point. The entry block points at itself as
	// a sentinel so intersect() terminates; it is reset to nil afterward.
	d.idom[c.Entry.Index] = c.Entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo {
			if b == c.Entry {
				continue
			}
			var newIdom *analysis.Block
			for _, p := range b.Preds {
				if d.post[p.Index] < 0 || d.idom[p.Index] == nil {
					continue // unreachable, or not yet processed this sweep
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b.Index] != newIdom {
				d.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	d.idom[c.Entry.Index] = nil

	// Children lists, in reverse-postorder order (deterministic).
	for _, b := range d.rpo {
		if p := d.idom[b.Index]; p != nil {
			d.children[p.Index] = append(d.children[p.Index], b)
		}
	}

	// Preorder intervals for O(1) dominance queries.
	counter := 0
	var number func(b *analysis.Block)
	number = func(b *analysis.Block) {
		d.pre[b.Index] = counter
		counter++
		for _, c := range d.children[b.Index] {
			number(c)
		}
		d.last[b.Index] = counter - 1
	}
	number(c.Entry)

	// Dominance frontiers (Cooper et al.): for every join block, walk
	// each predecessor's dominator chain up to the join's idom.
	// No two-predecessor shortcut: a single-predecessor block's idom is
	// that predecessor, so its runner walk adds nothing — except for a
	// back edge into the entry block, whose idom is nil.
	for _, b := range d.rpo {
		for _, p := range b.Preds {
			if d.post[p.Index] < 0 {
				continue
			}
			for runner := p; runner != nil && runner != d.idom[b.Index]; runner = d.idom[runner.Index] {
				if !containsBlock(d.frontier[runner.Index], b) {
					d.frontier[runner.Index] = append(d.frontier[runner.Index], b)
				}
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b *analysis.Block) *analysis.Block {
	for a != b {
		for d.post[a.Index] < d.post[b.Index] {
			a = d.idom[a.Index]
		}
		for d.post[b.Index] < d.post[a.Index] {
			b = d.idom[b.Index]
		}
	}
	return a
}

// RPO returns the reachable blocks in reverse postorder.
func (d *DomTree) RPO() []*analysis.Block { return d.rpo }

// Reachable reports whether b is reachable from the CFG entry.
func (d *DomTree) Reachable(b *analysis.Block) bool { return d.post[b.Index] >= 0 }

// Idom returns b's immediate dominator, nil for the entry block and for
// unreachable blocks.
func (d *DomTree) Idom(b *analysis.Block) *analysis.Block { return d.idom[b.Index] }

// Children returns the blocks whose immediate dominator is b, in
// reverse-postorder order.
func (d *DomTree) Children(b *analysis.Block) []*analysis.Block { return d.children[b.Index] }

// Frontier returns b's dominance frontier: the blocks where b's
// dominance stops, i.e. joins reachable from b that b does not strictly
// dominate.
func (d *DomTree) Frontier(b *analysis.Block) []*analysis.Block { return d.frontier[b.Index] }

// Dominates reports whether a dominates b (reflexively: every block
// dominates itself). Unreachable blocks dominate nothing and are
// dominated by nothing.
func (d *DomTree) Dominates(a, b *analysis.Block) bool {
	if d.pre[a.Index] < 0 || d.pre[b.Index] < 0 {
		return false
	}
	return d.pre[a.Index] <= d.pre[b.Index] && d.pre[b.Index] <= d.last[a.Index]
}

func containsBlock(list []*analysis.Block, b *analysis.Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}
