package engine

import (
	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/narrow"
	"github.com/graphbig/graphbig-go/internal/partition"
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
// supersteps. Because a shorter path may enter a partition late, the
// local kernels are label-correcting — a claimed vertex is re-relaxed
// when a smaller distance arrives — and the superstep loop runs until an
// exchange applies no update, at which point every distance equals the
// flat engine's (the unique fixpoint of the distance equations; the
// differential tests in internal/workloads pin this per vertex).

// bmsg is one boundary-exchange message: "vertex V can be reached in D".
type bmsg struct {
	v, d int32
}

// partState is the cached per-engine scaffolding of partitioned
// traversals, allocated on first use and reused across Traverse calls
// (CComp runs one traversal per component).
type partState struct {
	plan *partition.Plan
	mail *concurrent.Mailboxes[bmsg]

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

	sssp *concurrent.Mailboxes[wmsg] // delta-stepping's boundary messages (sssp.go), lazily allocated
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
			mail:    concurrent.NewMailboxes[bmsg](k),
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

// ValidateExchange runs the Mailboxes debug assertions over the
// partitioned scaffolding's exchange buffers — the traversal mailboxes
// and, when delta-stepping ran, the SSSP mailboxes. Between traversals
// every box must be drained (requireEmpty); an engine that never entered
// partitioned mode validates trivially. The metamorphic suites call this
// on every engine a workload builds, so a phase-discipline violation
// surfaces across all workloads and partition counts instead of only in
// the partitioned differential test.
func (e *Engine) ValidateExchange(requireEmpty bool) error {
	if e.prt == nil {
		return nil
	}
	if err := e.prt.mail.Validate(requireEmpty); err != nil {
		return err
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
	steps, sent, total := supersteps(e, ps, ps.mail,
		func(p int32) { e.localTraverse(ps, spec, p) },
		func(p int32) { e.emitBoundary(ps, spec, p) },
		func(p int32, m bmsg) bool {
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
// over its boundary message (bmsg for Traverse, wmsg for SSSP). Each
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
// deliberately not walked here — emitBoundary covers them from the dirty
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

// emitBoundary posts the best-known distance of every dirty boundary
// vertex across its cut edges. Message volume — the cross-partition
// traffic the BENCH records track — is one message per (dirty vertex,
// cut edge) pair per superstep.
func (e *Engine) emitBoundary(ps *partState, spec *Spec, p int32) {
	vw := e.vw
	plan := ps.plan
	lo, hi := plan.Range(int(p))
	for _, u := range ps.dirty[p] {
		nd := spec.Dist[u] + 1
		for _, v := range vw.Adj(u) {
			if v >= lo && v < hi {
				continue
			}
			ps.mail.Put(p, plan.Of(v), bmsg{v: v, d: nd})
		}
	}
	ps.dirty[p] = ps.dirty[p][:0]
}
