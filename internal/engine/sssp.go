package engine

import (
	"math"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// SSSPStats summarizes one SSSP call.
type SSSPStats struct {
	Relaxed int64 // successful relaxations
	Buckets int64 // non-empty buckets drained
}

// SSSP runs delta-stepping over ring.go's Buckets from srcs with bucket
// width delta, in place on dist (+Inf everywhere but at the sources).
// Distances are bit patterns under casMin and each worker pushes into its
// own shard. A drain of at most serialGrain edge visits (or any, at one
// worker) runs on the caller; wider ones fork.
func (e *Engine) SSSP(dist []float64, delta float64, srcs ...int32) SSSPStats {
	if len(dist) != e.n {
		panic("engine: dist length does not match view")
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
