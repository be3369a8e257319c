package engine

import (
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Spec configures one Traverse call. Dist is the only required field: it is
// both the output (level/component label per dense index) and the visited
// structure — a vertex with Dist[v] >= 0 is never re-claimed, so callers
// can run several traversals over one array (CComp labels components by
// reusing it across calls).
type Spec struct {
	// Dist holds -1 for unvisited slots; Traverse writes the discovery
	// round (0 for sources) into each claimed slot. len(Dist) must equal
	// the engine's vertex count.
	Dist []int32

	// Visit, if set, is called exactly once per newly claimed vertex with
	// its discovery round. In native runs it may be called from multiple
	// goroutines concurrently; it must not touch framework primitives.
	// Sources do not get a Visit call — callers initialize them.
	Visit func(v, round int32)

	// Label, if set with Labels, is written to Labels[v] when v is
	// claimed, giving CComp-style workloads a race-free component tag
	// without a second pass.
	Label  int32
	Labels []int32

	// NoPull forces pure push mode (for workloads whose semantics depend
	// on push-order effects, or for comparison runs).
	NoPull bool

	// TrackedVisit hosts the workload's instrumented per-frontier-item
	// body: k is the position of u in the current frontier, and emit
	// enqueues a newly discovered vertex for the next round, returning its
	// position in that frontier (legacy loops record a simulated store at
	// that slot). When a tracker is installed the engine runs a
	// single-threaded push loop that only calls TrackedVisit — the event
	// stream is entirely the workload's own, bit-identical to the
	// pre-engine implementations.
	TrackedVisit func(k int, u, round int32, emit func(v int32) int)
}

// Stats summarizes one Traverse call. PushRounds/PullRounds count global
// rounds in flat mode and the sum of partition-local rounds in partitioned
// mode; Supersteps and BoundarySent are zero outside partitioned mode,
// SerialRounds outside native flat mode.
type Stats struct {
	Reached    int64 // vertices claimed, including the sources
	Depth      int32 // highest round assigned (0 if only sources)
	PushRounds int
	PullRounds int

	// SerialRounds is how many of PushRounds ran on the caller as a plain
	// sequential loop because the round was at or below serialGrain (or
	// the engine has one worker); the rest forked.
	SerialRounds int

	Supersteps   int   // partitioned mode: boundary-exchange iterations
	BoundarySent int64 // partitioned mode: cross-partition messages posted
}

// Traverse runs a level-synchronous traversal from srcs. Sources must
// already have Dist[src] set (by convention 0) by the caller; Traverse
// claims every vertex reachable through unvisited slots and returns the
// per-call stats.
//
// Native runs direction-optimize: rounds run in push mode (scatter from a
// sparse frontier) until the frontier's out-degree sum exceeds
// unexplored/Alpha, then in pull mode (every unvisited vertex scans its
// in-neighbors against a dense bitmap, single writer per slot) until the
// awake count drops below n/Beta, then in push mode to the end. A push
// round forks across the workers (atomic CAS claims) only when its
// frontier holds more than serialGrain edge visits; at or below that it
// is a sequential loop on the caller. Instrumented runs always use the
// single-threaded push loop around Spec.TrackedVisit.
func (e *Engine) Traverse(spec *Spec, srcs ...int32) Stats {
	if len(spec.Dist) != e.n {
		panic("engine: Spec.Dist length does not match view")
	}
	cur, next := e.frontiers()
	for _, s := range srcs {
		cur.Push(s)
	}
	st := Stats{Reached: int64(len(srcs))}
	switch {
	case e.Tracked():
		e.trackedPush(spec, cur, next, &st)
	case e.partitionedOK(spec):
		e.partitionedTraverse(spec, cur, &st)
	default:
		e.nativeTraverse(spec, cur, next, &st)
	}
	return st
}

// trackedPush is the deterministic single-threaded frontier loop backing
// instrumented runs. All per-vertex and per-edge work — and therefore the
// entire tracker event stream — lives in the workload's TrackedVisit.
func (e *Engine) trackedPush(spec *Spec, cur, next *concurrent.Frontier, st *Stats) {
	// emit captures next by reference, so the frontier swap below retargets
	// it automatically.
	emit := func(v int32) int {
		next.Push(v)
		return next.Len() - 1
	}
	round := int32(1)
	for cur.Len() > 0 {
		fr := cur.Slice()
		for k := range fr {
			spec.TrackedVisit(k, fr[k], round, emit)
		}
		st.Reached += int64(next.Len())
		if next.Len() > 0 {
			st.Depth = round
		}
		st.PushRounds++
		cur, next = next, cur
		next.Reset()
		round++
	}
}

// serialGrain is the round floor, in edge visits: a push round whose
// frontier has an out-degree sum at or below it costs less than forking
// it does (goroutine launches, the WaitGroup barrier, waking threads that
// parked during the serial rounds before it, and the cache lines of the
// frontier length and the claim counters bouncing between cores), so it
// runs on the caller. Chosen from the sweep in DESIGN.md §6: the road
// graph needs 4 Ki or more and is flat from there to infinity, the social
// graph keeps improving up to here, and a push-only social run is at its
// best between here and 1 Mi and loses a third again if nothing ever
// forks. SPathDelta's bucket drain (internal/workloads) applies the same
// floor in the same unit.
const serialGrain = 256 << 10

// nativeTraverse is the flat native loop. Each round picks its direction
// from the Alpha test and, for push rounds, its width from the frontier's
// own work estimate: scout, the out-degree sum of the live frontier, is
// exactly the number of edge visits the round is about to make.
func (e *Engine) nativeTraverse(spec *Spec, cur, next *concurrent.Frontier, st *Stats) {
	oneWorker := e.Workers() == 1
	// edgesLeft approximates the unexplored-edge count driving the
	// push->pull switch.
	edgesLeft := e.vw.EdgeTotal()
	scout := e.degreeSum(cur.Slice())
	pull := !spec.NoPull
	round := int32(1)
	for cur.Len() > 0 {
		if pull && scout > edgesLeft/Alpha {
			e.pullPhase(spec, cur, &round, st)
			scout = e.degreeSum(cur.Slice())
			// The pull phase ran until the frontier was past its peak and
			// scanned the remainder on the way: finish in push. Testing
			// Alpha again would re-enter on every round of a long tail,
			// each one a scan of all n vertices for a handful of claims.
			pull = false
			continue
		}
		var produced, scouted int64
		if oneWorker || scout <= serialGrain {
			produced, scouted = e.pushRoundSerial(spec, cur, next, round)
			st.SerialRounds++
		} else {
			produced, scouted = e.pushRound(spec, cur, next, round)
		}
		edgesLeft -= scout
		scout = scouted
		st.Reached += produced
		if produced > 0 {
			st.Depth = round
		}
		st.PushRounds++
		cur, next = next, cur
		next.Reset()
		round++
	}
}

// degreeSum is the scout count of a frontier: the edge visits expanding
// it will make.
func (e *Engine) degreeSum(fr []int32) int64 {
	sum := int64(0)
	for _, s := range fr {
		sum += int64(e.vw.Degree(s))
	}
	return sum
}

// pushRoundSerial is the round at or below the floor: one goroutine, so
// the claim is a plain load and store on Dist, the next frontier a
// single-writer append, and labels, Visit calls and the scout sum are one
// pass over what the round produced — which keeps calls, and the
// registers they cost, out of the per-edge loop. Same contract and same
// return values as pushRound.
func (e *Engine) pushRoundSerial(spec *Spec, cur, next *concurrent.Frontier, round int32) (produced, scouted int64) {
	off, nbr := e.vw.NbrOff, e.vw.Nbr
	dist := spec.Dist
	out := next.Tail()
	for _, u := range cur.Slice() {
		for _, v := range nbr[off[u]:off[u+1]] {
			if dist[v] < 0 {
				dist[v] = round
				out = append(out, v)
			}
		}
	}
	next.Commit(out)
	if spec.Labels != nil {
		for _, v := range out {
			spec.Labels[v] = spec.Label
		}
	}
	if spec.Visit != nil {
		for _, v := range out {
			spec.Visit(v, round)
		}
	}
	return int64(len(out)), e.degreeSum(out)
}

// pushRound scatters from the sparse frontier across the workers: each
// claims unvisited neighbors with an atomic CAS on Dist, which makes the
// claim the sole arbiter — no racy reads of shared workload state. Returns
// the number of vertices produced and the sum of their degrees (scout
// count).
func (e *Engine) pushRound(spec *Spec, cur, next *concurrent.Frontier, round int32) (int64, int64) {
	vw := e.vw
	dist := spec.Dist
	fr := cur.Slice()
	var produced, scouted atomic.Int64
	e.ForItems(len(fr), 64, func(k int) {
		u := fr[k]
		var p, s int64
		for _, v := range vw.Adj(u) {
			if atomic.LoadInt32(&dist[v]) < 0 && atomic.CompareAndSwapInt32(&dist[v], -1, round) {
				if spec.Labels != nil {
					spec.Labels[v] = spec.Label
				}
				if spec.Visit != nil {
					spec.Visit(v, round)
				}
				next.Push(v)
				p++
				s += int64(vw.Degree(v))
			}
		}
		if p != 0 {
			produced.Add(p)
			scouted.Add(s)
		}
	})
	return produced.Load(), scouted.Load()
}

// pullPhase runs bottom-up rounds: the sparse frontier is densified into a
// bitmap, then every unvisited vertex scans its in-neighbors for a parent
// on the frontier. Dist slots are written only by the worker owning their
// chunk, so the phase needs no atomics on Dist. Rounds continue until the
// awake count drops below n/Beta (or the traversal dies out), at which
// point the surviving bitmap is sparsified back into cur for push mode.
//
// The scan is prefetch-friendly: the reverse-CSR offset and neighbor
// arrays are hoisted out of the loop once, each chunk walks a contiguous
// offset window, and every in-neighbor row is cut out as one slice — the
// offsets stream linearly, the row loads stream linearly, and the only
// irregular accesses left are the frontier-bitmap probes.
func (e *Engine) pullPhase(spec *Spec, cur *concurrent.Frontier, round *int32, st *Stats) {
	dist := spec.Dist
	n := e.n
	curBits, nextBits := e.bitmaps()
	curBits.Clear()
	for _, v := range cur.Slice() {
		curBits.Set(int(v))
	}
	inOff, inNbr := e.vw.InOff, e.vw.InNbr
	for {
		nextBits.Clear()
		var produced atomic.Int64
		r := *round
		e.ForChunks(func(lo, hi int) {
			var p int64
			if lo >= hi {
				return
			}
			// Re-slice to the chunk extent: d and off are windows of the
			// same [lo,hi) range, with off one element longer so off[dv+1]
			// reads the row end. The two one-time probes teach the
			// bounds-check eliminator (and the vet prover) that relation in
			// both directions, so the loop body indexes check-free.
			d := dist[lo:hi]
			off := inOff[lo : hi+1]
			_ = off[len(d)]
			_ = d[len(off)-2]
			for dv := range d {
				if d[dv] >= 0 {
					continue
				}
				row := inNbr[off[dv]:off[dv+1]]
				claimed := false
				for _, u := range row {
					if curBits.Test(int(u)) {
						claimed = true
						break
					}
				}
				if !claimed {
					continue
				}
				d[dv] = r
				v := lo + dv
				if spec.Labels != nil {
					spec.Labels[v] = spec.Label
				}
				if spec.Visit != nil {
					spec.Visit(property.Index32(v), r)
				}
				nextBits.Set(v)
				p++
			}
			if p != 0 {
				produced.Add(p)
			}
		})
		awake := produced.Load()
		st.Reached += awake
		if awake > 0 {
			st.Depth = r
		}
		st.PullRounds++
		*round = r + 1
		curBits, nextBits = nextBits, curBits
		if awake == 0 {
			cur.Reset()
			return
		}
		if awake < int64(n)/Beta {
			break
		}
	}
	// Sparsify the surviving frontier back into push mode, through the
	// engine's scratch slice so each pull exit reuses one buffer instead
	// of allocating a fresh sparse list.
	cur.Reset()
	e.sparse = curBits.AppendSet(e.sparse[:0])
	for _, v := range e.sparse {
		cur.Push(v)
	}
}
