// Package concurrent provides the shared-memory parallel building blocks
// used by the native (wall-clock) GraphBIG workloads: an atomic two-level
// bitmap (HierBitmap), a level-synchronous frontier, static range
// partitioning, and sharded counters. These are the Go equivalents of the
// OpenMP scaffolding in the original C++ suite.
package concurrent

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Frontier is an append-only queue of int32 vertex indices used for
// level-synchronous traversal. A round fills it one of two ways, never
// both at once: many goroutines call Push (one atomic add per entry), or
// one goroutine appends to Tail and publishes the result with Commit (no
// atomics per entry). After the round's barrier — or, for the single
// writer, after Commit — readers consume the Slice.
type Frontier struct {
	buf []int32
	len atomic.Int64
}

// NewFrontier returns a frontier able to hold up to cap entries.
func NewFrontier(capacity int) *Frontier {
	return &Frontier{buf: make([]int32, capacity)}
}

// Push appends v. It panics with a descriptive message if capacity is
// exceeded (callers size frontiers by vertex count, which bounds every
// level); a raw index-out-of-range from a worker goroutine would be
// undiagnosable.
func (f *Frontier) Push(v int32) {
	i := f.len.Add(1) - 1
	if int(i) >= len(f.buf) {
		panic(fmt.Sprintf("concurrent: Frontier capacity %d exceeded pushing vertex %d (a vertex was enqueued more than once?)", len(f.buf), v))
	}
	f.buf[i] = v
}

// Tail returns the unused capacity as an empty slice positioned after the
// queued entries. A single writer appends to it and hands the result to
// Commit; nothing is queued until then, and no Push may run in between.
func (f *Frontier) Tail() []int32 {
	s := f.Slice()
	return s[len(s):]
}

// Commit queues the entries a single writer appended to the slice Tail
// returned. Appending past the capacity reallocates the slice away from
// the frontier's buffer, so the overflow Push diagnoses (a vertex enqueued
// more than once) shows up here as a tail longer than the room that was
// left; the re-slice panics on it, on the caller's own stack, with both
// numbers in the message.
func (f *Frontier) Commit(tail []int32) {
	n := f.Len() + len(tail)
	_ = f.buf[:n]
	f.len.Store(int64(n))
}

// Slice returns the current contents. Callers must not Push concurrently
// with Slice use.
func (f *Frontier) Slice() []int32 {
	buf := f.buf
	n := int(f.len.Load())
	// Push bounds n by len(buf) (it panics first), and the counter only
	// moves up from zero; the guard restates that invariant where the
	// compiler's prove pass can see it, so the re-slice — inlined into
	// every traversal round — needs no bounds check. The fallthrough is
	// unreachable.
	if n >= 0 && n <= len(buf) {
		return buf[:n]
	}
	return buf
}

// Len returns the number of queued entries.
func (f *Frontier) Len() int { return int(f.len.Load()) }

// Reset empties the frontier, retaining capacity.
func (f *Frontier) Reset() { f.len.Store(0) }

// Workers resolves a worker-count request: n <= 0 selects GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ParallelRange splits [0,n) into contiguous chunks, one per worker, and
// runs body(start,end) concurrently. It returns once every chunk is done.
// With workers <= 1 (or tiny n) it runs inline, which keeps instrumented
// single-threaded runs deterministic.
func ParallelRange(n, workers int, body func(start, end int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		start := w * chunk
		end := start + chunk
		if end > n {
			end = n
		}
		if start >= end {
			break
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			body(s, e)
		}(start, end)
	}
	wg.Wait()
}

// ChunkBounds splits [0,n) into parts contiguous near-equal chunks and
// returns the parts+1 boundaries: chunk w is [bounds[w], bounds[w+1]).
// Remainder items go to the leading chunks, so sizes differ by at most
// one. It underpins deterministic per-worker decompositions — callers
// that need a stable worker id per range (e.g. the parallel counting
// sort in property.View construction) index their scratch by w.
func ChunkBounds(n, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1 // n == 0: a single empty chunk
	}
	bounds := make([]int, parts+1)
	q, r := n/parts, n%parts
	acc := 0
	for w := range bounds {
		bounds[w] = acc
		acc += q
		if w < r {
			acc++
		}
	}
	return bounds
}

// ParallelItems runs body(i) for every i in [0,n) using a dynamic
// work-stealing counter, which balances skewed per-item costs (e.g.
// per-vertex work proportional to degree). Each call launches workers
// goroutines and waits for them, whatever n is; the only floor here is
// n <= grain (or one worker), which runs inline in index order. That
// floor counts items, not work: a caller that knows what its items cost
// — the engine's push rounds and SPathDelta's drains know their edge
// visits — decides whether the fork pays before it calls.
func ParallelItems(n, workers int, grain int, body func(i int)) {
	workers = Workers(workers)
	if grain < 1 {
		grain = 1
	}
	if workers <= 1 || n <= grain {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(next.Add(int64(grain))) - grain
				if start >= n {
					return
				}
				end := start + grain
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Mailboxes is the boundary-exchange buffer of partitioned execution: a
// k x k matrix of append-only message lists, box[src][dst]. During a
// superstep each partition appends only to its own row (single writer, no
// synchronization); after a barrier each partition drains only its own
// column (single reader). The phases never overlap, so the type needs no
// atomics — the barrier between them is the caller's (ParallelItems
// returning is one).
//
// Drain visits sources in ascending order, so for merge operations that
// are order-sensitive the result is deterministic for a given plan
// regardless of worker count; for commutative merges (min-label
// exchange) determinism is free either way.
type Mailboxes[T any] struct {
	k   int
	box [][]T // box[src*k+dst]
}

// NewMailboxes returns an empty k-partition exchange buffer.
func NewMailboxes[T any](k int) *Mailboxes[T] {
	return &Mailboxes[T]{k: k, box: make([][]T, k*k)}
}

// K returns the partition count.
func (m *Mailboxes[T]) K() int { return m.k }

// Put appends msg to the src->dst box. Only partition src's worker may
// call it during a superstep.
func (m *Mailboxes[T]) Put(src, dst int32, msg T) {
	m.box[int(src)*m.k+int(dst)] = append(m.box[int(src)*m.k+int(dst)], msg)
}

// Drain invokes fn for every message addressed to dst, in ascending
// source order, and empties those boxes (retaining capacity). Only
// partition dst's worker may call it during an exchange phase.
func (m *Mailboxes[T]) Drain(dst int32, fn func(msg T)) int {
	n := 0
	for src := 0; src < m.k; src++ {
		b := m.box[src*m.k+int(dst)]
		for i := range b {
			fn(b[i])
		}
		n += len(b)
		m.box[src*m.k+int(dst)] = b[:0]
	}
	return n
}

// Validate checks the structural invariants of the exchange buffer:
// the box matrix must be exactly k x k with k > 0, and when
// requireEmpty is set every box must have been drained — the state the
// buffer must be in between traversals (a non-empty box there means an
// exchange window closed without its apply phase running). It is a
// debug assertion for tests and engine teardown paths.
//
// The row-writer/column-reader phase contract itself — Put only from
// partition src during a superstep, Drain only from partition dst after
// the barrier, never concurrently — is not observable from inside the
// type: the whole point of the design is that there is no
// synchronization state to witness. That contract is enforced
// statically by the phasediscipline analyzer in cmd/graphbig-vet, which
// checks that Put and Drain calls sit in distinct barrier-separated
// phases of the caller (DESIGN.md §7).
func (m *Mailboxes[T]) Validate(requireEmpty bool) error {
	if m.k <= 0 {
		return fmt.Errorf("concurrent: Mailboxes has non-positive partition count %d", m.k)
	}
	if len(m.box) != m.k*m.k {
		return fmt.Errorf("concurrent: Mailboxes has %d boxes for k=%d, want %d", len(m.box), m.k, m.k*m.k)
	}
	if requireEmpty {
		for i, b := range m.box {
			if len(b) != 0 {
				return fmt.Errorf("concurrent: Mailboxes box %d->%d holds %d undrained message(s)", i/m.k, i%m.k, len(b))
			}
		}
	}
	return nil
}

// Pending reports the total queued messages (call only between phases).
func (m *Mailboxes[T]) Pending() int64 {
	var n int64
	for i := range m.box {
		n += int64(len(m.box[i]))
	}
	return n
}

// Counter is a cache-line padded sharded counter for high-contention adds.
type Counter struct {
	shards []paddedInt64
}

type paddedInt64 struct {
	v atomic.Int64
	_ [7]int64
}

// NewCounter returns a counter sharded across GOMAXPROCS slots.
func NewCounter() *Counter {
	return &Counter{shards: make([]paddedInt64, runtime.GOMAXPROCS(0))}
}

// Add adds delta using shard s (callers pass their worker index). A
// zero-value Counter has no shards and drops the add instead of
// panicking on the modulo.
func (c *Counter) Add(s int, delta int64) {
	ns := len(c.shards)
	if ns == 0 {
		return
	}
	c.shards[s%ns].v.Add(delta)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}
