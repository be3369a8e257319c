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
// unit of parallelism. Each partition's worker runs the push/pull kernels
// over its own contiguous vertex range sequentially to local convergence,
// so interior vertices have a single writer and need no CAS at all; only
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

	// mark/inFr are per-vertex epoch stamps (single writer: the owning
	// partition), replacing O(n) clears: mark tracks dirty-list
	// membership for the current exchange window, inFr tracks pull-round
	// frontier membership. stamp backs the exchange-window counter and is
	// only advanced between parallel phases; pull rounds inside the
	// concurrent localTraverse use frStamp[p] instead — inFr[u] is owned
	// by u's partition, so per-partition counters stay collision-free
	// without sharing a counter across workers.
	mark    []int64
	inFr    []int64
	stamp   int64
	frStamp []int64

	dirtyStamp  int64   // stamp of the open exchange window
	localPush   []int64 // per-partition push-round counters (one superstep)
	localPull   []int64
	localApply  []int64 // per-partition applied-update counts (one exchange)
	localClaims []int64 // per-partition claim counts for Stats.Reached

	sssp *concurrent.Mailboxes[wmsg] // delta-stepping's boundary messages (sssp.go), lazily allocated
}

// partitioned returns the cached partitioned-mode scaffolding.
func (e *Engine) partitioned() *partState {
	if e.prt == nil {
		plan := e.vw.Partitions()
		k := plan.K
		e.prt = &partState{
			plan:        plan,
			mail:        concurrent.NewMailboxes[bmsg](k),
			fr:          make([][]int32, k),
			nx:          make([][]int32, k),
			dirty:       make([][]int32, k),
			claimed:     make([][]int32, k),
			mark:        make([]int64, e.n),
			inFr:        make([]int64, e.n),
			frStamp:     make([]int64, k),
			localPush:   make([]int64, k),
			localPull:   make([]int64, k),
			localApply:  make([]int64, k),
			localClaims: make([]int64, k),
		}
	}
	return e.prt
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

func (ps *partState) nextStamp() int64 {
	ps.stamp++
	return ps.stamp
}

// partitionedOK reports whether spec can run in partitioned mode: the
// label-correcting supersteps may revisit a vertex, so the exactly-once
// Visit contract (and the instrumented TrackedVisit stream) cannot be
// honored; those specs fall back to the flat engine.
func (e *Engine) partitionedOK(spec *Spec) bool {
	return e.vw.Partitions() != nil && !e.Tracked() &&
		spec.TrackedVisit == nil && spec.Visit == nil
}

// partitionedTraverse runs the superstep loop. Sources are already in cur
// (with Dist set by the caller); st accumulates the per-call stats,
// including the boundary-traffic counters.
func (e *Engine) partitionedTraverse(spec *Spec, cur *concurrent.Frontier, st *Stats) {
	ps := e.partitioned()
	plan := ps.plan
	k := plan.K
	dist := spec.Dist
	for p := 0; p < k; p++ {
		ps.fr[p] = ps.fr[p][:0]
		ps.dirty[p] = ps.dirty[p][:0]
		ps.claimed[p] = ps.claimed[p][:0]
		ps.localClaims[p] = 0
	}
	ps.dirtyStamp = ps.nextStamp()
	for _, s := range cur.Slice() {
		p := plan.Of(s)
		ps.fr[p] = append(ps.fr[p], s)
		ps.markDirty(p, s)
	}
	workers := e.Workers()
	for {
		st.Supersteps++
		// Phase 1 — partition-local push/pull to convergence. One worker
		// per partition at a time: interior claims are plain stores.
		concurrent.ParallelItems(k, workers, 1, func(p int) {
			e.localTraverse(ps, spec, narrow.Index32(p))
		})
		for p := 0; p < k; p++ {
			st.PushRounds += int(ps.localPush[p])
			st.PullRounds += int(ps.localPull[p])
		}
		// Phase 2 — emit: each partition walks its dirty boundary
		// vertices and posts their best-known distance across every cut
		// edge. The window closes here, so improvements applied in phase
		// 3 re-enter the next window's dirty list.
		concurrent.ParallelItems(k, workers, 1, func(p int) {
			e.emitBoundary(ps, spec, narrow.Index32(p))
		})
		sent := ps.mail.Pending()
		st.BoundarySent += sent
		ps.dirtyStamp = ps.nextStamp()
		if sent == 0 {
			break
		}
		// Phase 3 — apply: each partition drains its own mailbox column
		// and claims improvements into its next-superstep frontier.
		concurrent.ParallelItems(k, workers, 1, func(p int) {
			q := narrow.Index32(p)
			var got int64
			ps.mail.Drain(q, func(m bmsg) {
				if dv := dist[m.v]; dv < 0 || m.d < dv {
					e.claimPart(ps, spec, q, m.v, m.d)
					ps.fr[q] = append(ps.fr[q], m.v)
					got++
				}
			})
			ps.localApply[p] = got
		})
		var applied int64
		for p := 0; p < k; p++ {
			applied += ps.localApply[p]
		}
		if applied == 0 {
			break
		}
	}
	// Final stats from the claim lists: distances may have improved after
	// first claim, so Reached/Depth read the converged values.
	for p := 0; p < k; p++ {
		st.Reached += ps.localClaims[p]
		for _, v := range ps.claimed[p] {
			if d := dist[v]; d > st.Depth {
				st.Depth = d
			}
		}
	}
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
		ps.localClaims[p]++
	}
	spec.Dist[v] = nd
	ps.markDirty(p, v)
}

// markDirty schedules boundary vertex v for the next exchange emission,
// at most once per window (interior vertices are ignored — their
// improvements never cross a cut edge).
func (ps *partState) markDirty(p, v int32) {
	if ps.plan.Boundary[v] && ps.mark[v] != ps.dirtyStamp {
		ps.mark[v] = ps.dirtyStamp
		ps.dirty[p] = append(ps.dirty[p], v)
	}
}

// localTraverse is the partition-local kernel: the flat engine's
// direction-optimizing loop restricted to the partition's own vertex
// range, run sequentially by the partition's worker. Push rounds scatter
// the local frontier across intra-partition edges; pull rounds sweep the
// owned range against the frontier stamp. Cross-partition edges are
// deliberately not walked here — emitBoundary covers them from the dirty
// list, so each cut edge is traversed once per window, not once per
// local round.
func (e *Engine) localTraverse(ps *partState, spec *Spec, p int32) {
	vw := e.vw
	dist := spec.Dist
	lo, hi := ps.plan.Range(int(p))
	owned := int64(hi - lo)
	ps.localPush[p] = 0
	ps.localPull[p] = 0
	cur := ps.fr[p]
	next := ps.nx[p][:0]
	if len(cur) == 0 {
		return
	}
	edgesLeft := ps.plan.LocalEdges[p]
	scout := int64(0)
	for _, u := range cur {
		scout += int64(vw.Degree(u))
	}
	var pushRounds, pullRounds int64
	for len(cur) > 0 {
		if !spec.NoPull && scout > edgesLeft/Alpha {
			// Pull rounds: stamp the frontier, sweep the owned range.
			for {
				ps.frStamp[p]++
				fs := ps.frStamp[p]
				for _, u := range cur {
					ps.inFr[u] = fs
				}
				next = next[:0]
				for v := lo; v < hi; v++ {
					dv := dist[v]
					best := dv
					for _, u := range vw.InAdj(v) {
						if u < lo || u >= hi || ps.inFr[u] != fs {
							continue
						}
						if nd := dist[u] + 1; best < 0 || nd < best {
							best = nd
						}
					}
					if best != dv {
						e.claimPart(ps, spec, p, v, best)
						next = append(next, v)
					}
				}
				pullRounds++
				cur, next = next, cur
				awake := int64(len(cur))
				if awake == 0 || awake < owned/Beta {
					break
				}
			}
			scout = 0
			for _, u := range cur {
				scout += int64(vw.Degree(u))
			}
			edgesLeft = 0 // sweep covered the remainder; finish in push mode
			continue
		}
		// Push round: scatter the local frontier over owned targets.
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
		pushRounds++
		edgesLeft -= scout
		cur, next = next, cur
		scout = 0
		for _, u := range cur {
			scout += int64(vw.Degree(u))
		}
	}
	ps.fr[p] = cur[:0]
	ps.nx[p] = next[:0]
	ps.localPush[p] = pushRounds
	ps.localPull[p] = pullRounds
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
