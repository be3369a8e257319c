package engine

import (
	"math"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// The native delta-stepping kernels over ring.go's Buckets. The
// partitioned one runs partitioned.go's superstep loop: each partition
// drains its own ring over its own vertices, and cut-edge relaxations
// travel between supersteps as messages, one per sender and target. Both
// take the minimum over the same left-to-right float path sums, so their
// distances agree bit for bit.

// SSSPStats summarizes one SSSP call. Supersteps and BoundarySent are zero
// outside partitioned mode, where BoundarySent counts the messages posted:
// each superstep, one per (sender partition, remote target) pair, carrying
// the smallest tentative distance over the sender's cut edges into it.
type SSSPStats struct {
	Relaxed      int64 // successful relaxations (local + applied boundary)
	Buckets      int64 // non-empty buckets drained, summed over partitions
	Supersteps   int
	BoundarySent int64
}

// SSSP runs delta-stepping from srcs with bucket width delta, in place on
// dist (+Inf everywhere but at the sources); partitioned views run
// PartitionedSSSP. Flat, distances are bit patterns under casMin and each
// worker pushes into its own shard. A drain of at most serialGrain edge
// visits (or any, at one worker) runs on the caller; wider ones fork.
func (e *Engine) SSSP(dist []float64, delta float64, srcs ...int32) SSSPStats {
	if len(dist) != e.n {
		panic("engine: dist length does not match view")
	}
	if e.vw.Partitions() != nil && !e.Tracked() {
		return e.PartitionedSSSP(dist, delta, srcs...)
	}
	vw := e.vw
	w := e.Workers()
	db := make([]uint64, len(dist))
	for i := range db {
		db[i] = math.Float64bits(dist[i])
	}
	q := NewBuckets(delta, w)
	for _, s := range srcs {
		q.Push(0, dist[s], s)
	}
	var relaxed atomic.Int64
	drained := q.Drain(func(work []int32, b int) {
		if w == 1 || e.degreeSum(work) <= serialGrain {
			relaxed.Add(relaxSerial(vw, q, db, work, b))
			return
		}
		concurrent.ParallelItems(w, w, 1, func(p int) {
			relaxed.Add(relaxChunk(vw, q, db, work, b, p, w))
		})
	})
	for i := range dist {
		dist[i] = math.Float64frombits(db[i])
	}
	return SSSPStats{Relaxed: relaxed.Load(), Buckets: drained}
}

// casMin lowers *addr (a float64's IEEE-754 bits) to nd if nd is smaller,
// reporting whether it won. Non-negative floats, +Inf included, order like
// their bit patterns, so the uint64 CAS is a correct concurrent float min.
func casMin(addr *uint64, nd float64) bool {
	ndb := math.Float64bits(nd)
	for {
		old := atomic.LoadUint64(addr)
		if ndb >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, ndb) {
			return true
		}
	}
}

// relaxSerial is relaxChunk on the caller: the min a plain compare and
// store, every winner into shard 0. With one worker it makes the same
// relaxations in the same order as relaxChunk would.
func relaxSerial(vw *property.View, q *Buckets, db []uint64, work []int32, b int) (relaxed int64) {
	for _, ui := range work {
		du := math.Float64frombits(db[ui])
		if q.Of(du) < b {
			continue // stale entry; settled in a lower bucket
		}
		adj := vw.Adj(ui)
		wts := vw.AdjW(ui)[:len(adj)]
		for j, wi := range adj {
			nd := du + wts[j]
			if math.Float64bits(nd) < db[wi] {
				db[wi] = math.Float64bits(nd)
				q.Push(0, nd, wi)
				relaxed++
			}
		}
	}
	return relaxed
}

// relaxChunk relaxes worker p's contiguous chunk of the merged work list
// into worker p's shard (ChunkBounds' split, inline so nothing allocates).
func relaxChunk(vw *property.View, q *Buckets, db []uint64, work []int32, b, p, w int) (relaxed int64) {
	lo, hi := p*len(work)/w, (p+1)*len(work)/w
	for _, ui := range work[lo:hi] {
		du := math.Float64frombits(atomic.LoadUint64(&db[ui]))
		if q.Of(du) < b {
			continue // stale entry; settled in a lower bucket
		}
		adj := vw.Adj(ui)
		wts := vw.AdjW(ui)[:len(adj)] // pinned: no wts[j] bounds check
		for j, wi := range adj {
			nd := du + wts[j]
			if casMin(&db[wi], nd) {
				q.Push(p, nd, wi)
				relaxed++
			}
		}
	}
	return relaxed
}

// PartitionedSSSP is SSSP over the view's partition plan; the engine must
// not be tracked.
func (e *Engine) PartitionedSSSP(dist []float64, delta float64, srcs ...int32) SSSPStats {
	if len(dist) != e.n {
		panic("engine: dist length does not match view")
	}
	ps := e.partitioned()
	if ps.sssp == nil {
		ps.sssp = newExchange(ps.plan.K, e.n, math.Inf(1), e.vw.AdjW)
	}
	plan := ps.plan
	q := make([]*Buckets, plan.K)
	for p := range q {
		q[p] = NewBuckets(delta, 1)
	}
	for _, s := range srcs {
		p := plan.Of(s)
		q[p].Push(0, dist[s], s)
		ps.markDirty(p, s)
	}
	steps, sent, total := supersteps(e, ps, ps.sssp.mail,
		func(p int32) { e.localSSSP(ps, q[p], dist, p) },
		func(p int32) { emit(e.vw, ps, ps.sssp, dist, p) },
		func(p int32, m bmsg[float64]) bool {
			if m.d < dist[m.v] {
				dist[m.v] = m.d
				q[p].Push(0, m.d, m.v)
				ps.markDirty(p, m.v)
				return true
			}
			return false
		})
	return SSSPStats{
		Relaxed:      total.relaxed + total.applied,
		Buckets:      total.rounds,
		Supersteps:   steps,
		BoundarySent: sent,
	}
}

// localSSSP drains partition p's ring over the edges inside p, counting
// the buckets drained as p's local rounds.
func (e *Engine) localSSSP(ps *partState, q *Buckets, dist []float64, p int32) {
	vw := e.vw
	lo, hi := ps.plan.Range(int(p))
	var relaxed int64
	drained := q.Drain(func(work []int32, b int) {
		for _, u := range work {
			du := dist[u]
			if q.Of(du) < b {
				continue // stale entry; settled in a lower bucket
			}
			adj := vw.Adj(u)
			wts := vw.AdjW(u)[:len(adj)]
			for j, v := range adj {
				if v < lo || v >= hi {
					continue
				}
				nd := du + wts[j]
				if nd < dist[v] {
					dist[v] = nd
					q.Push(0, nd, v)
					ps.markDirty(p, v)
					relaxed++
				}
			}
		}
	})
	ps.count[p].rounds += drained
	ps.count[p].relaxed += relaxed
}
