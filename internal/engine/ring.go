package engine

import (
	"container/heap"
	"math/bits"
)

// ringCap is the most slots a ring grows to. Meyer & Sanders bound the
// buckets pending at once by ⌈w_max/Δ⌉ + 1; a push past the window of a
// ring this wide (a hostile weight or width) is spilled instead.
const ringCap = 1 << 16

// maxBucket is where bucket indices saturate. No entry of the saturated
// bucket is ever stale, so it drains as label-correcting relaxation and the
// distances stay exact.
const maxBucket = 1 << 62

// Buckets is delta-stepping's one bucket structure (DESIGN.md §12): one
// ring per shard — a worker of the native kernel, or the instrumented walk
// in internal/workloads. Only whoever relaxes as shard p pushes into ring
// p, so pushes take no lock.
type Buckets struct {
	delta float64
	rings []ring
}

// NewBuckets returns empty buckets of width delta over shards rings.
func NewBuckets(delta float64, shards int) *Buckets {
	return &Buckets{delta: delta, rings: make([]ring, shards)}
}

// Of returns the bucket of distance d, ⌊d/Δ⌋ saturated at maxBucket (+Inf
// included). Pushes and the stale-entry test both go through it.
func (q *Buckets) Of(d float64) int {
	x := d / q.delta
	if !(x < maxBucket) {
		return maxBucket
	}
	return int(x)
}

// Push files v in shard p under the bucket of d, which must not lie below
// the bucket being drained.
func (q *Buckets) Push(p int, d float64, v int32) {
	q.rings[p].push(q.Of(d), v)
}

// Drain is delta-stepping's outer loop: jump to the lowest pending bucket
// b, hand relax the shards' lists for b merged in shard order, repeat until
// b stays empty, go on. It returns the non-empty buckets drained. Each list
// is what a dense bucket array indexed by Of would hold at that point, in
// the same order, whatever the ring sizes and spills.
func (q *Buckets) Drain(relax func(work []int32, b int)) (drained int64) {
	var work []int32
	for {
		b, ok := 0, false
		for i := range q.rings {
			if lb, pending := q.rings[i].lowest(); pending && (!ok || lb < b) {
				b, ok = lb, true
			}
		}
		if !ok {
			break
		}
		drained++
		for i := range q.rings {
			q.rings[i].advance(b)
		}
		for {
			work = work[:0]
			for i := range q.rings {
				work = q.rings[i].take(b, work)
			}
			if len(work) == 0 {
				break
			}
			relax(work, b)
		}
	}
	// Rewind, so pushes after the drain may go below its last bucket.
	for i := range q.rings {
		q.rings[i].base = 0
	}
	return drained
}

// ring is one shard's pending buckets. Bucket b of the window [base,
// base+len(slots)) lives in slot b mod len(slots). Entries past the window
// of a ring at ringCap wait in spill until the window reaches them, so no
// bucket is ever split between the two.
type ring struct {
	slots [][]int32
	occ   []uint64 // bit s set: slots[s] is non-empty
	live  int      // non-empty slots
	base  int
	spill spills
	seq   uint64
}

// spilled is an entry past the window; seq keeps push order in its bucket.
type spilled struct {
	b   int
	seq uint64
	v   int32
}

// spills is a container/heap min-heap on (b, seq).
type spills []spilled

func (h spills) Len() int { return len(h) }
func (h spills) Less(i, j int) bool {
	return h[i].b < h[j].b || h[i].b == h[j].b && h[i].seq < h[j].seq
}
func (h spills) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spills) Push(x any)   { *h = append(*h, x.(spilled)) }
func (h *spills) Pop() any {
	x := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return x
}

// push files v under bucket b >= base, doubling the ring while b lies past
// the window and spilling once it is at ringCap.
func (r *ring) push(b int, v int32) {
	for b-r.base >= len(r.slots) {
		if len(r.slots) == ringCap {
			r.seq++
			heap.Push(&r.spill, spilled{b: b, seq: r.seq, v: v})
			return
		}
		r.grow()
	}
	r.put(b, v)
}

// put appends v to the slot of bucket b, which lies in the window.
func (r *ring) put(b int, v int32) {
	s := b & (len(r.slots) - 1)
	if len(r.slots[s]) == 0 {
		r.occ[s>>6] |= 1 << (s & 63)
		r.live++
	}
	r.slots[s] = append(r.slots[s], v)
}

// grow doubles the ring (to 64 slots from none), moving every slot, list
// and capacity, to where its bucket maps in the wider window.
func (r *ring) grow() {
	n := max(2*len(r.slots), 64)
	slots := make([][]int32, n)
	occ := make([]uint64, n/64)
	for s, list := range r.slots {
		t := (r.base + (s-r.base)&(len(r.slots)-1)) & (n - 1)
		slots[t] = list
		if len(list) > 0 {
			occ[t>>6] |= 1 << (t & 63)
		}
	}
	r.slots, r.occ = slots, occ
}

// lowest returns the lowest pending bucket: the first occupied slot from
// base's in cyclic order, a bitmap word at a time, or else the spill top.
func (r *ring) lowest() (int, bool) {
	if r.live == 0 {
		if len(r.spill) == 0 {
			return 0, false
		}
		return r.spill[0].b, true
	}
	mask := len(r.slots) - 1
	s0 := r.base & mask
	w := s0 >> 6
	word := r.occ[w] &^ (1<<(s0&63) - 1)
	for word == 0 {
		// Back at s0's word, its bits below s0 are the window's top.
		w = (w + 1) & (len(r.occ) - 1)
		word = r.occ[w]
	}
	s := w<<6 | bits.TrailingZeros64(word)
	return r.base + (s-s0)&mask, true
}

// advance moves the window up to b, the bucket about to drain, and the
// spilled entries it now reaches into their slots in (bucket, push) order.
func (r *ring) advance(b int) {
	r.base = b
	for len(r.spill) > 0 && r.spill[0].b-b < len(r.slots) {
		e := heap.Pop(&r.spill).(spilled)
		r.put(e.b, e.v)
	}
}

// take appends bucket b's list (b is the window's base) to work and
// empties the slot, keeping its capacity for the re-adds.
func (r *ring) take(b int, work []int32) []int32 {
	if r.live == 0 {
		return work
	}
	s := b & (len(r.slots) - 1)
	list := r.slots[s]
	if len(list) == 0 {
		return work
	}
	r.slots[s] = list[:0]
	r.occ[s>>6] &^= 1 << (s & 63)
	r.live--
	return append(work, list...)
}
