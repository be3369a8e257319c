package concurrent

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHierBitmapBasics(t *testing.T) {
	b := NewHierBitmap(130)
	if b.Len() != 130 {
		t.Errorf("Len = %d", b.Len())
	}
	if b.Test(0) || b.Test(129) {
		t.Error("fresh bitmap has set bits")
	}
	if !b.TrySet(129) {
		t.Error("first TrySet must succeed")
	}
	if b.TrySet(129) {
		t.Error("second TrySet must fail")
	}
	if !b.Test(129) {
		t.Error("bit not set")
	}
	b.Set(5)
	b.Set(5)
	if got := b.AppendSet(nil); !slices.Equal(got, []int32{5, 129}) {
		t.Errorf("AppendSet = %v, want [5 129]", got)
	}
	b.Clear()
	if got := b.AppendSet(nil); len(got) != 0 {
		t.Errorf("AppendSet after Clear = %v", got)
	}
}

// runBitmapOps interprets ops as a program over a HierBitmap of n bits
// and a []bool model of it, one 5-byte instruction at a time (opcode, two
// 16-bit operands), and fails on the first answer the two disagree on.
// The model is the whole specification: bit i is set iff model[i].
func runBitmapOps(t *testing.T, n int, ops []byte) {
	t.Helper()
	h := NewHierBitmap(n)
	model := make([]bool, n)
	// check holds AppendSet onto prefix to the model: prefix kept, then
	// the model's bits in ascending order.
	check := func(prefix []int32) {
		t.Helper()
		want := slices.Clone(prefix)
		for i, set := range model {
			if set {
				want = append(want, int32(i))
			}
		}
		if got := h.AppendSet(prefix); !slices.Equal(got, want) {
			t.Fatalf("n=%d: AppendSet(%v) = %v, model %v", n, prefix, got, want)
		}
	}
	for ; len(ops) >= 5; ops = ops[5:] {
		a, b := int(ops[1])<<8|int(ops[2]), int(ops[3])<<8|int(ops[4])
		i := a % n
		switch ops[0] % 8 {
		case 0, 1:
			h.Set(i)
			model[i] = true
		case 2, 3:
			if got := h.TrySet(i); got == model[i] {
				t.Fatalf("n=%d: TrySet(%d) = %v with the bit already %v", n, i, got, model[i])
			}
			model[i] = true
		case 4:
			if h.Test(i) != model[i] {
				t.Fatalf("n=%d: Test(%d) = %v, model %v", n, i, h.Test(i), model[i])
			}
		case 5:
			// A prefix of 0..3 entries, with spare capacity or without.
			prefix := make([]int32, a%4, a%4+b%3)
			for j := range prefix {
				prefix[j] = int32(-1 - j)
			}
			check(prefix)
		case 6:
			check(nil)
		case 7:
			if b%64 == 0 { // rare, or no program ever fills a bitmap
				h.Clear()
				clear(model)
			}
		}
	}
	check([]int32{-1})
}

// bitmapSizes straddle the word and summary-word (64 and 4096 bit)
// boundaries where the hierarchy arithmetic can go wrong.
var bitmapSizes = []int{1, 63, 64, 65, 127, 4095, 4096, 4097, 20000}

// TestHierBitmapVsFlatOracle runs random programs against the []bool
// model at every boundary size.
func TestHierBitmapVsFlatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := make([]byte, 5*2000)
	for _, n := range bitmapSizes {
		rng.Read(ops)
		runBitmapOps(t, n, ops)
	}
}

// TestHierBitmapAppendSetBoundaries sets the first and last bit and the
// bits either side of the word and summary-word boundaries inside each
// size, and checks AppendSet lists exactly them, in order, after the
// prefix it is handed.
func TestHierBitmapAppendSetBoundaries(t *testing.T) {
	for _, n := range bitmapSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			b := NewHierBitmap(n)
			var want []int32
			for _, i := range []int{0, 63, 64, 4095, 4096, n - 1} {
				if i < n && !slices.Contains(want, int32(i)) {
					b.Set(i)
					want = append(want, int32(i))
				}
			}
			slices.Sort(want)
			if got := b.AppendSet([]int32{-1}); !slices.Equal(got, append([]int32{-1}, want...)) {
				t.Errorf("AppendSet = %v, want [-1] then %v", got, want)
			}
			for i := 0; i < n; i++ {
				if b.Test(i) != slices.Contains(want, int32(i)) {
					t.Fatalf("Test(%d) = %v", i, b.Test(i))
				}
			}
			for _, i := range want {
				if b.TrySet(int(i)) {
					t.Errorf("TrySet(%d) claimed a set bit", i)
				}
			}
			b.Clear()
			if got := b.AppendSet(nil); len(got) != 0 {
				t.Errorf("AppendSet after Clear = %v", got)
			}
		})
	}
}

// FuzzHierBitmap lets the fuzzer write the program and pick the size.
func FuzzHierBitmap(f *testing.F) {
	for _, n := range bitmapSizes {
		f.Add(uint16(n), []byte{0, 0, 0, 0, 0, 2, 0xff, 0xff, 0, 0, 5, 0, 0, 0xff, 0xff, 7, 0, 0, 0, 0, 1, 0x0f, 0xff, 0, 0})
	}
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		runBitmapOps(t, 1+int(size)%8300, ops)
	})
}

func TestHierBitmapTrySetExactlyOnce(t *testing.T) {
	const n, workers = 1 << 14, 8
	b := NewHierBitmap(n)
	var wins atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if b.TrySet(i) {
					wins.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if wins.Load() != n {
		t.Errorf("wins = %d, want %d (each bit claimed exactly once)", wins.Load(), n)
	}
	// Every summary mark must have survived the racing setters: a lost
	// mark would hide a populated word from the scans.
	got := b.AppendSet(nil)
	if len(got) != n {
		t.Fatalf("AppendSet found %d bits, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("AppendSet[%d] = %d", i, v)
		}
	}
}

// TestHierBitmapSparseScanTouchesSummary sets two bits 254 summary words
// apart in a large bitmap and checks the scans still find exactly them
// (the summary-skip paths).
func TestHierBitmapSparseScanTouchesSummary(t *testing.T) {
	const n = 1 << 20
	b := NewHierBitmap(n)
	b.Set(n - 2)
	b.Set(4097)
	if s := b.AppendSet(nil); !slices.Equal(s, []int32{4097, n - 2}) {
		t.Errorf("AppendSet = %v, want [4097 %d]", s, n-2)
	}
	b.Clear()
	if s := b.AppendSet(nil); len(s) != 0 {
		t.Errorf("Clear left bits behind: %v", s)
	}
}
