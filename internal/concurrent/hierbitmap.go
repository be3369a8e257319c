package concurrent

import (
	"math/bits"
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/narrow"
)

// HierBitmap is a bit-packed two-level frontier: a flat word array with
// atomic test-and-set semantics (the visited set of parallel traversals)
// plus a summary-word hierarchy — bit w of sum[w>>6] is set iff words[w]
// has ever been set since the last Clear. The scans (Clear, AppendSet)
// walk the summary and touch only populated leaf words, so a sparse
// frontier over a large vertex set costs O(set words + n/4096) instead of
// a flat bitmap's O(n/64) — the difference between a pull round's
// bookkeeping touching one word per vertex and touching only the
// frontier's cache lines (DESIGN.md §12).
type HierBitmap struct {
	words []atomic.Uint64
	sum   []atomic.Uint64
	n     int
}

// NewHierBitmap returns a hierarchical bitmap of n bits, all clear.
func NewHierBitmap(n int) *HierBitmap {
	nw := (n + 63) / 64
	return &HierBitmap{
		words: make([]atomic.Uint64, nw),
		sum:   make([]atomic.Uint64, (nw+63)/64),
		n:     n,
	}
}

// Len returns the number of bits.
func (b *HierBitmap) Len() int { return b.n }

// Test reports whether bit i is set.
func (b *HierBitmap) Test(i int) bool {
	return b.words[i>>6].Load()&(1<<(uint(i)&63)) != 0
}

// mark records leaf word wi as populated in the summary level. Or is a
// single atomic RMW, so concurrent setters of different bits in one leaf
// word cannot lose each other's summary marks.
func (b *HierBitmap) mark(wi int) {
	b.sum[wi>>6].Or(1 << (uint(wi) & 63))
}

// Set sets bit i. Safe to race with Test and Set; not with Clear or the
// scans.
//
// Set arbitrates through a Load+CAS loop rather than the value-returning
// atomic Or: the CAS publishes the summary mark before any racer can
// observe the leaf word non-zero. (The one-shot Or form also miscompiles
// under register pressure on go1.24.0 amd64 — its CMPXCHG expansion
// clobbers a live register — so the CAS loop is load-bearing, not
// stylistic.)
func (b *HierBitmap) Set(i int) {
	wi := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := b.words[wi].Load()
		if old&mask != 0 {
			return
		}
		if b.words[wi].CompareAndSwap(old, old|mask) {
			if old == 0 {
				b.mark(wi)
			}
			return
		}
	}
}

// Clear clears every bit, touching only the words the summary reports as
// populated. It must not race with setters.
func (b *HierBitmap) Clear() {
	for si := range b.sum {
		s := b.sum[si].Load()
		if s == 0 {
			continue
		}
		base := si << 6
		for s != 0 {
			b.words[base+bits.TrailingZeros64(s)].Store(0)
			s &= s - 1
		}
		b.sum[si].Store(0)
	}
}

// AppendSet appends the indices of all set bits to dst in ascending order
// and returns the extended slice, walking only populated words. It must
// not race with concurrent setters; the engine uses it between pull
// phases to sparsify a dense frontier.
func (b *HierBitmap) AppendSet(dst []int32) []int32 {
	words, sum := b.words, b.sum
	for si := range sum {
		s := sum[si].Load()
		sbase := si << 6
		for s != 0 {
			wi := sbase + bits.TrailingZeros64(s)
			s &= s - 1
			if wi >= len(words) {
				break // summary bits never exceed the leaf range
			}
			w := words[wi].Load()
			for w != 0 {
				dst = append(dst, narrow.Index32(wi<<6+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return dst
}
