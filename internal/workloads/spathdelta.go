package workloads

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/mem"
	"github.com/graphbig/graphbig-go/internal/property"
)

// SPathDelta is the delta-stepping single-source shortest-path algorithm
// (Meyer & Sanders), the parallel alternative to the Table 4 Dijkstra
// implementation: vertices are bucketed by tentative distance in bands of
// width delta; each bucket's relaxations run in parallel until the bucket
// drains. Distances equal Dijkstra's. It backs the traversal-strategy
// ablation and the native parallel benchmarks.
//
// Native relaxations scan the view's resolved Adj/AdjW arrays and
// arbitrate the tentative-distance array with a lock-free CAS min-loop
// over the float64 bit patterns (DESIGN.md §12): for non-negative floats
// the IEEE-754 bit patterns order like the values, so a uint64
// compare-and-swap taken only when the new bits are smaller is exactly a
// concurrent min. Each worker pushes relaxed vertices into its own
// bucket shard — no shared bucket lock — and the shards are merged into
// one scratch work list at every bucket boundary. The final distances
// (the min over path sums, schedule-independent) match the framework
// variant exactly. Instrumented runs keep the original framework walk
// and its mutex-arbitrated distance array, so the simulated event
// stream is unchanged.
//
// opt.MaxIters bounds the bucket count scanned (default: unbounded).
// opt.Delta overrides the bucket width; by default delta is the mean
// edge weight — estimated by a deterministic strided sample over the
// view's flat weight array (edge-sampled, so skewed degree
// distributions do not bias it the way per-vertex sampling did) —
// divided by the average out-degree (see tunedDelta). An override that
// is NaN, infinite, negative or narrower than minDelta is an error.
func SPathDelta(g *property.Graph, opt Options) (*Result, error) {
	// NaN fails `delta <= 0` below and would reach the kernels as a width;
	// !(d >= 0) catches it together with the negatives.
	if d := opt.Delta; !(d >= 0) || math.IsInf(d, 1) || d != 0 && d < minDelta {
		return nil, fmt.Errorf("workloads: SPathDelta: delta %v is neither 0 (sampled) nor a finite width >= %g", d, minDelta)
	}
	vw := view(g, &opt)
	n := vw.Len()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	distF := g.EnsureField(SPathDistField)
	idxSlot := g.EnsureField(property.SysIndexField)
	inf := math.Inf(1)
	srcIdx, err := pick(vw, opt)
	if err != nil {
		return nil, err
	}
	w := workers(g, opt)
	t := g.Tracker()
	tracked := t != nil
	// MaxIters bounds a global bucket scan that has no partitioned
	// equivalent, so bounded runs keep the flat kernel.
	partitioned := vw.Partitions() != nil && !tracked && opt.MaxIters <= 0
	if tracked || partitioned {
		// These two kernels write the property only where a distance
		// improved; the flat native one writes every slot at the end.
		for _, v := range vw.Verts {
			v.SetPropRaw(distF, inf)
		}
	}

	delta := opt.Delta
	if delta <= 0 {
		if tracked {
			delta = legacyVertexDelta(vw, n)
		} else {
			delta = tunedDelta(vw)
		}
	}

	dist := make([]float64, n)
	for i := range dist {
		dist[i] = inf
	}

	// Partitioned (subgraph-centric) path: each partition runs the
	// delta-stepping kernel over its owned subgraph with single-writer
	// distance slots (no mutex), exchanging cut-edge relaxations between
	// supersteps. Distances are bitwise identical to the flat kernel —
	// both converge to the min over the same float path sums.
	if partitioned {
		dist[srcIdx] = 0
		g.SetProp(vw.Verts[srcIdx], distF, 0)
		eng := newEngine(g, vw, w, opt.engineSink)
		pst := eng.PartitionedSSSP(dist, delta, srcIdx)
		settled := int64(0)
		sum := 0.0
		for i := range dist {
			if !math.IsInf(dist[i], 1) {
				settled++
				sum += dist[i]
				vw.Verts[i].SetPropRaw(distF, dist[i])
			}
		}
		res := &Result{
			Workload: "SPathDelta",
			Visited:  settled,
			Checksum: sum,
			Stats: map[string]float64{
				"delta":   delta,
				"buckets": float64(pst.Buckets),
				"relaxed": float64(pst.Relaxed),
			},
		}
		partitionStats(vw, res, pst.Supersteps, pst.BoundarySent)
		return res, nil
	}

	if tracked {
		return trackedSPathDelta(g, vw, opt, dist, delta, srcIdx, distF, idxSlot, t)
	}

	bucketsDone, relaxed := casSPathDelta(vw, dist, delta, srcIdx, w, opt.MaxIters)

	settled := int64(0)
	sum := 0.0
	for i := range dist {
		vw.Verts[i].SetPropRaw(distF, dist[i])
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
			"buckets": float64(bucketsDone),
			"relaxed": float64(relaxed),
		},
	}, nil
}

// minDelta is the narrowest bucket width accepted as an override. Buckets
// are a dense array indexed by int(dist/delta) and at most MaxInt32 of
// them are ever drained: a narrower width puts a path of length one beyond
// the last bucket the scan can reach, and from 2^-63 down the conversion
// overflows into a negative index.
const minDelta = 1.0 / (1 << 31)

// sampleDelta estimates the mean edge weight with a deterministic
// strided sample over the view's flat weight array. Sampling edges
// rather than vertices keeps small graphs fully covered (stride is 1
// until the array outgrows the sample budget) and keeps skewed degree
// distributions from over-weighting hub vertices. The result is
// clamped to >= 1, the customary delta floor.
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
// out-degree — Meyer & Sanders' delta = Theta(weight/degree) rule. A
// settled vertex relaxes ~degree edges, so on dense graphs a
// mean-weight-wide bucket admits far more vertices than one round can
// settle and the kernel re-relaxes the same rows bucket after bucket;
// dividing by degree keeps the per-round admission near what actually
// settles. The floor of 0.25 stops sparse-but-heavy views from
// degenerating into Dijkstra's one-vertex rounds.
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

// deltaShards holds one private bucket array per worker, in the same
// struct-of-arrays shape as the partitioned kernel's ssspState: worker
// p only ever touches bkt[p]/high[p]/relaxed[p] inside a parallel
// region, so pushes need no lock, and the merge at each bucket boundary
// runs on the coordinating goroutine. Bucket slices are truncated,
// never freed, so steady-state drains allocate nothing (the alloc
// ratchet pins this).
type deltaShards struct {
	bkt     [][][]int32 // bkt[p][b]: worker p's bucket b
	high    []int       // highest bucket index pushed per worker
	relaxed []int64
}

func newDeltaShards(w int) *deltaShards {
	return &deltaShards{
		bkt:     make([][][]int32, w),
		high:    make([]int, w),
		relaxed: make([]int64, w),
	}
}

// push appends v to worker p's bucket b, growing the dense bucket array
// as needed. Only worker p may call it during a parallel phase.
func (ss *deltaShards) push(p, b int, v int32) {
	for b >= len(ss.bkt[p]) {
		ss.bkt[p] = append(ss.bkt[p], nil)
	}
	ss.bkt[p][b] = append(ss.bkt[p][b], v)
	if b > ss.high[p] {
		ss.high[p] = b
	}
}

// casMin lowers *addr (a float64 stored as its IEEE-754 bits) to nd if
// nd is smaller, reporting whether it won. Distances are non-negative,
// and non-negative floats order identically to their bit patterns
// (+Inf included), so the uint64 CAS is a correct concurrent float min.
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

// casSPathDelta is the native flat delta-stepping kernel: tentative
// distances live in a uint64 bit-pattern array arbitrated by casMin,
// and each worker buckets its winning relaxations into a private shard.
// At every bucket boundary the shards merge into one reused scratch
// list; re-relaxations within the bucket (light edges) loop until the
// bucket drains, exactly like the classic formulation.
func casSPathDelta(vw *property.View, dist []float64, delta float64, srcIdx int32, w, maxIters int) (bucketsDone int, relaxed int64) {
	w = concurrent.Workers(w)
	db := make([]uint64, len(dist))
	for i := range db {
		db[i] = math.Float64bits(dist[i])
	}
	db[srcIdx] = math.Float64bits(0)

	ss := newDeltaShards(w)
	ss.push(0, 0, srcIdx)
	maxBucket := maxIters
	if maxBucket <= 0 {
		maxBucket = math.MaxInt32
	}
	var work []int32
	for b := 0; bucketsDone < maxBucket; b++ {
		high := 0
		for p := 0; p < w; p++ {
			if ss.high[p] > high {
				high = ss.high[p]
			}
		}
		if b > high {
			break
		}
		counted := false
		for {
			// Merge the shards' bucket-b lists into the scratch work list
			// and truncate them in place for the re-adds.
			work = work[:0]
			for p := 0; p < w; p++ {
				if b < len(ss.bkt[p]) {
					work = append(work, ss.bkt[p][b]...)
					ss.bkt[p][b] = ss.bkt[p][b][:0]
				}
			}
			if len(work) == 0 {
				break
			}
			if !counted {
				bucketsDone++
				counted = true
			}
			if w == 1 || fewVisits(vw.NbrOff, work) {
				ss.relaxSerial(vw, db, work, b, delta)
				continue
			}
			wk := work
			concurrent.ParallelItems(w, w, 1, func(p int) {
				ss.relaxChunk(vw, db, wk, b, delta, p, w)
			})
		}
	}
	for i := range dist {
		dist[i] = math.Float64frombits(db[i])
	}
	for p := 0; p < w; p++ {
		relaxed += ss.relaxed[p]
	}
	return bucketsDone, relaxed
}

// serialVisits is the drain floor, in edge visits: the engine's
// serialGrain under another package's name — same unit, same value, same
// sweep (DESIGN.md §6). A merged work list whose out-degree sum is at or
// below it is relaxed on the caller; forking it costs more than the
// relaxations do.
const serialVisits = 256 << 10

// fewVisits reports whether relaxing work scans at most serialVisits
// edges. It stops adding at the floor, so a wide list costs no more to
// size than a narrow one.
func fewVisits(off, work []int32) bool {
	visits := 0
	for _, u := range work {
		visits += int(off[u+1] - off[u])
		if visits > serialVisits {
			return false
		}
	}
	return true
}

// relaxSerial is relaxChunk for a drain below the floor (or a one-worker
// run): the whole list on the caller, the min a plain compare and store
// on the bit pattern, every winner into shard 0. With one worker it makes
// the same relaxations in the same order as relaxChunk did.
func (ss *deltaShards) relaxSerial(vw *property.View, db []uint64, work []int32, b int, delta float64) {
	var relaxed int64
	for _, ui := range work {
		du := math.Float64frombits(db[ui])
		if int(du/delta) < b {
			continue // stale entry; settled in a lower bucket
		}
		adj := vw.Adj(ui)
		wts := vw.AdjW(ui)[:len(adj)]
		for j, wi := range adj {
			nd := du + wts[j]
			if math.Float64bits(nd) < db[wi] {
				db[wi] = math.Float64bits(nd)
				ss.push(0, int(nd/delta), wi)
				relaxed++
			}
		}
	}
	ss.relaxed[0] += relaxed
}

// relaxChunk relaxes worker p's contiguous chunk of the merged work
// list, pushing winning relaxations into worker p's own shard. The
// chunk split is the same arithmetic ChunkBounds uses, computed inline
// so the drain loop allocates nothing.
func (ss *deltaShards) relaxChunk(vw *property.View, db []uint64, work []int32, b int, delta float64, p, w int) {
	lo, hi := p*len(work)/w, (p+1)*len(work)/w
	var relaxed int64
	for _, ui := range work[lo:hi] {
		du := math.Float64frombits(atomic.LoadUint64(&db[ui]))
		if int(du/delta) < b {
			continue // stale entry; settled in a lower bucket
		}
		adj := vw.Adj(ui)
		// Pinned to the adjacency extent so the wts[j] bounds check
		// inside the relaxation loop is provably dead.
		wts := vw.AdjW(ui)[:len(adj)]
		for j, wi := range adj {
			nd := du + wts[j]
			if casMin(&db[wi], nd) {
				ss.push(p, int(nd/delta), wi)
				relaxed++
			}
		}
	}
	ss.relaxed[p] += relaxed
}

// trackedSPathDelta is the instrumented framework walk, preserved from
// the pre-campaign implementation: a single global bucket array behind
// a mutex, relaxations through Neighbors/FindVertex/GetProp, and the
// simulated loads/stores and branches that make the event stream — and
// hence parity.json — bit-identical to the original.
func trackedSPathDelta(g *property.Graph, vw *property.View, opt Options, dist []float64, delta float64, srcIdx int32, distF, idxSlot int, t mem.Tracker) (*Result, error) {
	w := workers(g, opt)
	var mu sync.Mutex
	var buckets [][]int32 // dense bucket array indexed by floor(dist/delta)
	high := 0             // highest bucket index ever pushed
	push := func(b int, i int32) {
		mu.Lock()
		for b >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], i)
		if b > high {
			high = b
		}
		mu.Unlock()
	}
	curHigh := func() int {
		mu.Lock()
		h := high
		mu.Unlock()
		return h
	}
	// takeBucket swaps bucket b out under the lock. The length guard
	// makes the (once-per-round, cold) access safe independent of the
	// grow-only invariant push maintains.
	takeBucket := func(b int) []int32 {
		var work []int32
		mu.Lock()
		if b < len(buckets) {
			work = buckets[b]
			buckets[b] = nil
		}
		mu.Unlock()
		return work
	}
	dSim := newSimArr(g, len(dist), 8)

	dist[srcIdx] = 0
	g.SetProp(vw.Verts[srcIdx], distF, 0)
	push(0, srcIdx)
	dSim.St(int(srcIdx))

	var relaxed atomic.Int64
	bucketsDone := 0
	maxBucket := opt.MaxIters
	if maxBucket <= 0 {
		maxBucket = math.MaxInt32
	}
	for b := 0; b <= curHigh() && bucketsDone < maxBucket; b++ {
		mu.Lock()
		empty := b >= len(buckets) || len(buckets[b]) == 0
		mu.Unlock()
		if empty {
			continue
		}
		bucketsDone++
		// Drain bucket b: settled entries may be re-added by light edges.
		for {
			work := takeBucket(b)
			if len(work) == 0 {
				break
			}
			concurrent.ParallelRange(len(work), w, func(lo, hi int) {
				for _, ui := range work[lo:hi] {
					dSim.Ld(int(ui))
					du := loadDist(&mu, dist, ui)
					if int(du/delta) < b {
						continue // stale entry; already settled in a lower bucket
					}
					u := vw.Verts[ui]
					g.Neighbors(u, func(_ int, e *property.Edge) bool {
						nb := g.FindVertex(e.To)
						if nb == nil {
							return true
						}
						wi := int32(g.GetProp(nb, idxSlot))
						nd := du + e.Weight
						inst(t, 3)
						mu.Lock()
						better := nd < dist[wi]
						if better {
							dist[wi] = nd
							// The property write stays under the lock so a
							// racing larger relaxation cannot overwrite it.
							nb.SetPropRaw(distF, nd)
						}
						mu.Unlock()
						branch(t, siteRelax, better)
						if better {
							dSim.St(int(wi))
							g.SetProp(nb, distF, nd) // accounting-only on 1-thread runs
							push(int(nd/delta), wi)
							relaxed.Add(1)
						}
						return true
					})
				}
			})
		}
	}

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
			"buckets": float64(bucketsDone),
			"relaxed": float64(relaxed.Load()),
		},
	}, nil
}

func loadDist(mu *sync.Mutex, dist []float64, i int32) float64 {
	mu.Lock()
	d := dist[i]
	mu.Unlock()
	return d
}
