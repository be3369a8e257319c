package engine

import (
	"fmt"
	"math"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/partition"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Partitioned (subgraph-centric) traversal mode — DESIGN.md §10.
//
// When the view carries a partition plan (property.ViewOpts.Partitions),
// Traverse runs GoFFish-style: the partition — not the vertex — is the
// unit of parallelism. Each partition's worker runs a push kernel over its
// own contiguous vertex range sequentially to local convergence, so
// interior vertices have a single writer and need no CAS at all; only
// boundary vertices (the plan's cross-partition set) are exchanged, as
// (vertex, distance) messages routed through concurrent.Mailboxes between
// supersteps, each sender folding its messages to one per remote target
// (emit). Because a shorter path may enter a partition late, the
// local kernels are label-correcting — a claimed vertex is re-relaxed
// when a smaller distance arrives — and the superstep loop runs until an
// exchange applies no update, at which point every distance equals the
// flat engine's (the unique fixpoint of the distance equations; the
// differential tests in internal/workloads pin this per vertex).

// distance is a partitioned kernel's distance type: BFS hop counts (Traverse)
// or float path sums (PartitionedSSSP).
type distance interface{ int32 | float64 }

// bmsg is one boundary-exchange message: "vertex v is reachable at
// distance d".
type bmsg[D distance] struct {
	v int32
	d D
}

// exchange is one kernel's boundary exchange: the mailboxes and, per
// sender partition, a combiner that folds the sender's messages of one
// window into one minimum per remote target, like a Pregel combiner.
// The slot of a target not on touched holds none, so emit posts and
// resets exactly the slots it touched and no window needs a clear.
type exchange[D distance] struct {
	mail *concurrent.Mailboxes[bmsg[D]]
	comb []combiner[D]
	none D // the empty slot: no distance reaches it
	// weight returns u's edge weights, aligned with its adjacency; nil
	// when every edge weighs one.
	weight func(u int32) []D
}

// combiner is one sender partition's slots, one per vertex: v's is
// pages[v>>pageBits][v&pageMask], the smallest distance folded for v this
// window. A page is allocated when a target in it is first touched, so a
// plan with few cut edges costs a few pages, not n slots per sender. Only
// the sender's worker touches them, in its emit phase.
type combiner[D distance] struct {
	pages   []*page[D]
	touched []int32 // targets whose slot is not none
}

// page is a block of 1 Ki consecutive vertices' combine slots.
type page[D distance] [1 << pageBits]D

const (
	pageBits = 10
	pageMask = 1<<pageBits - 1
)

func newExchange[D distance](k, n int, none D, weight func(u int32) []D) *exchange[D] {
	x := &exchange[D]{mail: concurrent.NewMailboxes[bmsg[D]](k), comb: make([]combiner[D], k), none: none, weight: weight}
	for p := range x.comb {
		x.comb[p].pages = make([]*page[D], (n+pageMask)>>pageBits)
	}
	return x
}

// newPage returns a page of empty slots.
func (x *exchange[D]) newPage() *page[D] {
	pg := new(page[D])
	for i := range pg {
		pg[i] = x.none
	}
	return pg
}

// Validate runs the Mailboxes debug assertion and, when requireEmpty is
// set, also requires every combine slot back at none and every touched
// list empty: a stale slot would swallow a later message that does not
// beat it, and a stale touched entry would post a message nobody sent.
func (x *exchange[D]) Validate(requireEmpty bool) error {
	if err := x.mail.Validate(requireEmpty); err != nil || !requireEmpty {
		return err
	}
	for p, c := range x.comb {
		if len(c.touched) != 0 {
			return fmt.Errorf("engine: partition %d's combiner still lists %d touched target(s)", p, len(c.touched))
		}
		for j, pg := range c.pages {
			if pg == nil {
				continue
			}
			for i, b := range pg {
				if b != x.none {
					return fmt.Errorf("engine: partition %d's combine slot for vertex %d holds %v, not the empty sentinel", p, j<<pageBits+i, b)
				}
			}
		}
	}
	return nil
}

// partState is the cached per-engine scaffolding of partitioned
// traversals, allocated on first use and reused across Traverse calls
// (CComp runs one traversal per component).
type partState struct {
	plan *partition.Plan
	hops *exchange[int32] // Traverse's boundary exchange, lazily allocated

	fr      [][]int32 // per-partition frontier seeding the next superstep
	nx      [][]int32 // per-partition local next-queue scratch
	dirty   [][]int32 // boundary vertices improved since the last exchange
	claimed [][]int32 // vertices claimed (-1 -> d) this traversal

	// mark is a per-vertex stamp of dirty-list membership (single writer:
	// the owning partition): v is on its partition's dirty list iff
	// mark[v] == window, so opening a window is one increment instead of
	// an O(n) clear. window is only advanced between parallel phases.
	mark   []int64
	window int64

	count []partCount // per-partition counters over one call

	sssp *exchange[float64] // delta-stepping's boundary exchange (sssp.go), lazily allocated
}

// partCount is one partition's counters over one partitioned call. Only
// the partition's own worker writes its entry; supersteps sums them once,
// after the loop.
type partCount struct {
	rounds  int64 // local rounds: BFS push rounds, SSSP buckets drained
	relaxed int64 // SSSP local relaxations
	applied int64 // boundary messages that improved their target
	claims  int64 // BFS first claims, for Stats.Reached
}

// partitioned returns the cached partitioned-mode scaffolding readied for
// one call: the dirty lists empty, the counters zero and the first
// exchange window open, so the caller can seed its sources with
// markDirty.
func (e *Engine) partitioned() *partState {
	if e.prt == nil {
		plan := e.vw.Partitions()
		k := plan.K
		e.prt = &partState{
			plan:    plan,
			fr:      make([][]int32, k),
			nx:      make([][]int32, k),
			dirty:   make([][]int32, k),
			claimed: make([][]int32, k),
			mark:    make([]int64, e.n),
			count:   make([]partCount, k),
		}
	}
	ps := e.prt
	for p := range ps.dirty {
		ps.dirty[p] = ps.dirty[p][:0]
		ps.count[p] = partCount{}
	}
	ps.window++
	return ps
}

// ValidateExchange runs the debug assertions over the partitioned
// scaffolding's exchanges — the traversal one and, when delta-stepping
// ran, the SSSP one. Between traversals every box must be drained and
// every combine slot empty (requireEmpty); an engine that never entered
// partitioned mode validates trivially. The metamorphic suites call this
// on every engine a workload builds, so a phase-discipline violation
// surfaces across all workloads and partition counts instead of only in
// the partitioned differential test.
func (e *Engine) ValidateExchange(requireEmpty bool) error {
	if e.prt == nil {
		return nil
	}
	if e.prt.hops != nil {
		if err := e.prt.hops.Validate(requireEmpty); err != nil {
			return err
		}
	}
	if e.prt.sssp != nil {
		return e.prt.sssp.Validate(requireEmpty)
	}
	return nil
}

// partitionedOK reports whether spec can run in partitioned mode: the
// label-correcting supersteps may revisit a vertex, so the instrumented
// TrackedVisit stream cannot be honored; those specs fall back to the
// flat engine.
func (e *Engine) partitionedOK(spec *Spec) bool {
	return e.vw.Partitions() != nil && !e.Tracked() &&
		spec.TrackedVisit == nil
}

// partitionedTraverse is Traverse over the partition plan. Sources are
// already in cur (with Dist set by the caller); st accumulates the
// per-call stats, including the boundary-traffic counters.
func (e *Engine) partitionedTraverse(spec *Spec, cur *concurrent.Frontier, st *Stats) {
	ps := e.partitioned()
	if ps.hops == nil {
		ps.hops = newExchange[int32](ps.plan.K, e.n, math.MaxInt32, nil)
	}
	plan := ps.plan
	dist := spec.Dist
	for p := range ps.fr {
		ps.fr[p] = ps.fr[p][:0]
		ps.claimed[p] = ps.claimed[p][:0]
	}
	for _, s := range cur.Slice() {
		p := plan.Of(s)
		ps.fr[p] = append(ps.fr[p], s)
		ps.markDirty(p, s)
	}
	steps, sent, total := supersteps(e, ps, ps.hops.mail,
		func(p int32) { e.localTraverse(ps, spec, p) },
		func(p int32) { emit(e.vw, ps, ps.hops, dist, p) },
		func(p int32, m bmsg[int32]) bool {
			if dv := dist[m.v]; dv < 0 || m.d < dv {
				e.claimPart(ps, spec, p, m.v, m.d)
				ps.fr[p] = append(ps.fr[p], m.v)
				return true
			}
			return false
		})
	st.Supersteps += steps
	st.BoundarySent += sent
	st.PushRounds += int(total.rounds)
	st.Reached += total.claims
	// Depth from the claim lists: distances may have improved after first
	// claim, so it reads the converged values.
	for p := range ps.claimed {
		for _, v := range ps.claimed[p] {
			if d := dist[v]; d > st.Depth {
				st.Depth = d
			}
		}
	}
}

// supersteps is the superstep loop of every partitioned kernel, generic
// over its boundary message (bmsg[int32] for Traverse, bmsg[float64] for
// SSSP). Each
// superstep runs three phases, each with one worker per partition at a
// time, and the ParallelItems barrier between phases is the only
// synchronisation:
//
//  1. local runs partition p to local convergence over its own edges;
//  2. emit posts p's dirty boundary vertices into mail. The exchange
//     window then closes, so improvements applied in phase 3 enter the
//     next window's dirty list;
//  3. each partition drains its own mail column through apply, which
//     reports whether a message improved its target.
//
// The loop ends after an exchange that sends or applies nothing, since
// then no partition has work left. It returns the superstep count, the
// messages sent and the partitions' summed counters.
func supersteps[M any](e *Engine, ps *partState, mail *concurrent.Mailboxes[M],
	local, emit func(p int32), apply func(p int32, m M) bool) (steps int, sent int64, total partCount) {
	k := ps.plan.K
	workers := e.Workers()
	var applied int64
	for {
		steps++
		concurrent.ParallelItems(k, workers, 1, func(p int) {
			local(narrow.Index32(p))
		})
		concurrent.ParallelItems(k, workers, 1, func(p int) {
			emit(narrow.Index32(p))
		})
		n := mail.Pending()
		sent += n
		ps.window++
		if n == 0 {
			break
		}
		concurrent.ParallelItems(k, workers, 1, func(p int) {
			q := narrow.Index32(p)
			var got int64
			mail.Drain(q, func(m M) {
				if apply(q, m) {
					got++
				}
			})
			ps.count[p].applied += got
		})
		var now int64
		for _, c := range ps.count {
			now += c.applied
		}
		if now == applied {
			break // this exchange applied nothing
		}
		applied = now
	}
	for _, c := range ps.count {
		total.rounds += c.rounds
		total.relaxed += c.relaxed
		total.applied += c.applied
		total.claims += c.claims
	}
	return steps, sent, total
}

// claimPart records an improvement of v to nd inside partition p. First
// claims (Dist going -1 -> nd) take the traversal label and count toward
// Reached; any improvement of a boundary vertex schedules it for the next
// exchange emission exactly once per window.
func (e *Engine) claimPart(ps *partState, spec *Spec, p, v, nd int32) {
	if spec.Dist[v] < 0 {
		if spec.Labels != nil {
			spec.Labels[v] = spec.Label
		}
		ps.claimed[p] = append(ps.claimed[p], v)
		ps.count[p].claims++
	}
	spec.Dist[v] = nd
	ps.markDirty(p, v)
}

// markDirty schedules boundary vertex v for the next exchange emission,
// at most once per window (interior vertices are ignored — their
// improvements never cross a cut edge).
func (ps *partState) markDirty(p, v int32) {
	if ps.plan.Boundary[v] && ps.mark[v] != ps.window {
		ps.mark[v] = ps.window
		ps.dirty[p] = append(ps.dirty[p], v)
	}
}

// localTraverse is the partition-local kernel: a label-correcting push
// BFS over the partition's own vertex range, run sequentially by the
// partition's worker until its frontier is empty. A target is claimed
// again whenever a shorter distance reaches it. Cross-partition edges are
// deliberately not walked here — emit covers them from the dirty
// list, so each cut edge is traversed once per window, not once per local
// round.
//
// There is no pull phase. A partition-local pull cannot stop at a
// vertex's first frontier parent, because a visited vertex may still
// improve; so each pull round reads every in-edge of every owned vertex,
// which on a symmetric graph is never fewer edge reads than the push
// round it would replace (DESIGN.md §10).
func (e *Engine) localTraverse(ps *partState, spec *Spec, p int32) {
	vw := e.vw
	dist := spec.Dist
	lo, hi := ps.plan.Range(int(p))
	cur, next := ps.fr[p], ps.nx[p]
	var rounds int64
	for ; len(cur) > 0; rounds++ {
		next = next[:0]
		for _, u := range cur {
			nd := dist[u] + 1
			for _, v := range vw.Adj(u) {
				if v < lo || v >= hi {
					continue
				}
				if dv := dist[v]; dv < 0 || nd < dv {
					e.claimPart(ps, spec, p, v, nd)
					next = append(next, v)
				}
			}
		}
		cur, next = next, cur
	}
	ps.fr[p] = cur[:0]
	ps.nx[p] = next[:0]
	ps.count[p].rounds += rounds
}

// emit is the emit phase of both partitioned kernels. It folds every cut
// edge of partition p's dirty boundary vertices into p's combiner — the
// candidate for the edge's target is dist[u] plus the edge's weight, or
// plus one when the exchange has no weights — then posts one message
// per touched target, carrying the minimum, and resets that slot. Message
// volume, the cross-partition traffic the BENCH records track, is one
// message per (sender partition, remote target) pair per superstep. Only
// p's own distances are read: a sender never filters by its target's
// distance.
func emit[D distance](vw *property.View, ps *partState, x *exchange[D], dist []D, p int32) {
	plan := ps.plan
	lo, hi := plan.Range(int(p))
	c := &x.comb[p]
	pages, none, weighted := c.pages, x.none, x.weight != nil
	for _, u := range ps.dirty[p] {
		du := dist[u]
		adj := vw.Adj(u)
		var wts []D
		if weighted {
			wts = x.weight(u)[:len(adj)]
		}
		for j, v := range adj {
			if v >= lo && v < hi {
				continue
			}
			nd := du + 1
			if weighted {
				nd = du + wts[j]
			}
			pg := pages[v>>pageBits]
			if pg == nil {
				pg = x.newPage()
				pages[v>>pageBits] = pg
			}
			if b := &pg[v&pageMask]; nd < *b {
				if *b == none {
					c.touched = append(c.touched, v)
				}
				*b = nd
			}
		}
	}
	ps.dirty[p] = ps.dirty[p][:0]
	for _, v := range c.touched {
		b := &pages[v>>pageBits][v&pageMask]
		x.mail.Put(p, plan.Of(v), bmsg[D]{v: v, d: *b})
		*b = none
	}
	c.touched = c.touched[:0]
}
