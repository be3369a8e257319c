package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// drained is one list a drain handed to its relax body.
type drained struct {
	b    int
	list []int32
}

// TestRingMatchesDenseModel drives Buckets and a dense bucket array with the
// same random programs and requires the same sequence of (bucket, list)
// drains. The dense model is the structure the ring replaced: one list per
// bucket, indexed here by the bucket's rank in the program's universe, and
// scanned one index at a time. The universe mixes a run of consecutive
// buckets (pushes inside the window, growth), clusters past ringCap and
// across long empty gaps (spills, jumps) and the saturated index; each
// program runs one to three drains over the same Buckets, refilled in
// between, with one to three shards.
func TestRingMatchesDenseModel(t *testing.T) {
	// The run past ringCap starts where a full-size window from the first
	// run ends, so spills land on, just inside and just past its top.
	var universe []int
	for _, run := range [][2]int{{0, 300}, {ringCap - 40, 340}, {3 * ringCap, 40}, {1 << 40, 40}, {maxBucket - 39, 40}} {
		for b := run[0]; b < run[0]+run[1]; b++ {
			universe = append(universe, b)
		}
	}
	rank := make(map[int]int, len(universe))
	for i, b := range universe {
		rank[b] = i
	}
	type push struct {
		p, b int
		v    int32
	}
	rng := rand.New(rand.NewSource(29))
	// pick returns a bucket at or above rank lo: mostly close to it, now and
	// then anywhere above or on either side of the top of a full-size
	// window based there.
	pick := func(lo int) int {
		switch rng.Intn(6) {
		case 0:
			return universe[lo+rng.Intn(len(universe)-lo)]
		case 1:
			if b := universe[lo] + ringCap - 1 + rng.Intn(2); rank[b] > 0 {
				return b
			}
		}
		return universe[min(lo+rng.Intn(8), len(universe)-1)]
	}
	var sawCap, sawSpill bool
	for prog := 0; prog < 150; prog++ {
		w := 1 + rng.Intn(3)
		q := NewBuckets(1, w)
		model := make([][][]int32, w)
		for p := range model {
			model[p] = make([][]int32, len(universe))
		}
		budget := 300
		next := int32(0)
		newPush := func(lo int) push {
			next++
			budget--
			return push{p: rng.Intn(w), b: pick(lo), v: next}
		}
		for round := 0; round < 1+rng.Intn(3); round++ {
			var seeds []push
			for i := 0; i < 1+rng.Intn(20); i++ {
				seeds = append(seeds, newPush(0))
			}
			for _, s := range seeds {
				q.rings[s.p].push(s.b, s.v)
			}
			var got []drained
			var calls [][]push
			n := q.Drain(func(work []int32, b int) {
				got = append(got, drained{b, slices.Clone(work)})
				var made []push
				for budget > 0 && rng.Intn(3) != 0 {
					made = append(made, newPush(rank[b]))
				}
				for _, s := range made {
					q.rings[s.p].push(s.b, s.v)
				}
				calls = append(calls, made)
				for i := range q.rings {
					sawCap = sawCap || len(q.rings[i].slots) == ringCap
					sawSpill = sawSpill || len(q.rings[i].spill) > 0
				}
			})

			for _, s := range seeds {
				model[s.p][rank[s.b]] = append(model[s.p][rank[s.b]], s.v)
			}
			var want []drained
			nonEmpty := int64(0)
			for r := range universe {
				for first := true; ; first = false {
					var work []int32
					for p := range model {
						work = append(work, model[p][r]...)
						model[p][r] = nil
					}
					if len(work) == 0 {
						break
					}
					if first {
						nonEmpty++
					}
					want = append(want, drained{universe[r], work})
					if len(want) > len(calls) {
						break
					}
					for _, s := range calls[len(want)-1] {
						model[s.p][rank[s.b]] = append(model[s.p][rank[s.b]], s.v)
					}
				}
			}
			if n != nonEmpty || len(got) != len(want) {
				t.Fatalf("program %d round %d: %d buckets in %d lists, model %d in %d", prog, round, n, len(got), nonEmpty, len(want))
			}
			for i := range want {
				if got[i].b != want[i].b || !slices.Equal(got[i].list, want[i].list) {
					t.Fatalf("program %d round %d, list %d: ring drained %d %v, model %d %v",
						prog, round, i, got[i].b, got[i].list, want[i].b, want[i].list)
				}
			}
		}
	}
	if !sawCap || !sawSpill {
		t.Errorf("programs never grew a ring to ringCap (%v) or spilled past it (%v)", sawCap, sawSpill)
	}
}

// TestBucketOfSaturates: a distance whose quotient does not fit below
// maxBucket — +Inf, a weight of 1e19 on a unit width — lands in maxBucket
// instead of wrapping to a negative index.
func TestBucketOfSaturates(t *testing.T) {
	q := NewBuckets(2, 1)
	for d, want := range map[float64]int{0: 0, 5.5: 2, 1e12: 5e11, 1e19: maxBucket, 1e300: maxBucket, math.Inf(1): maxBucket} {
		if got := q.Of(d); got != want {
			t.Errorf("Of(%v) = %d, want %d", d, got, want)
		}
	}
}

// TestDrainRewinds refills buckets after a drain, below the last bucket it
// drained: the next drain must take them, lowest first, as from empty
// buckets.
func TestDrainRewinds(t *testing.T) {
	q := NewBuckets(1, 2)
	for b := range 10 {
		q.Push(b%2, float64(b), int32(b))
	}
	var got []drained
	record := func(work []int32, b int) { got = append(got, drained{b, slices.Clone(work)}) }
	if n := q.Drain(record); n != 10 || got[9].b != 9 {
		t.Fatalf("first drain: %d buckets, last %v", n, got[len(got)-1])
	}
	got = got[:0]
	q.Push(1, 3, 30)
	q.Push(0, 1, 10)
	q.Push(0, 3, 31)
	if n := q.Drain(record); n != 2 {
		t.Fatalf("second drain: %d buckets, want 2", n)
	}
	want := []drained{{1, []int32{10}}, {3, []int32{31, 30}}}
	for i := range want {
		if got[i].b != want[i].b || !slices.Equal(got[i].list, want[i].list) {
			t.Fatalf("second drain handed %v, want %v", got, want)
		}
	}
}
