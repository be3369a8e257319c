package concurrent

import (
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
	if b.Count() != 2 {
		t.Errorf("Count = %d, want 2", b.Count())
	}
	b.Clear()
	if b.Count() != 0 {
		t.Error("Clear failed")
	}
	if b.NextSet(0) != -1 {
		t.Error("NextSet on cleared bitmap must be -1")
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
	check := func() {
		t.Helper()
		want := []int32{-1} // AppendSet must keep the prefix it is handed
		for i, set := range model {
			if set {
				want = append(want, int32(i))
			}
		}
		if got := h.AppendSet([]int32{-1}); !slices.Equal(got, want) {
			t.Fatalf("n=%d: AppendSet = %v, model %v", n, got, want)
		}
		if h.Count() != len(want)-1 {
			t.Fatalf("n=%d: Count = %d, model %d", n, h.Count(), len(want)-1)
		}
		// A NextSet-driven scan must visit exactly the model's bits.
		k := 1
		for i := h.NextSet(0); i != -1; i = h.NextSet(i + 1) {
			if k >= len(want) || int32(i) != want[k] {
				t.Fatalf("n=%d: NextSet scan diverged at bit %d (position %d)", n, i, k-1)
			}
			k++
		}
		if k != len(want) {
			t.Fatalf("n=%d: NextSet scan stopped after %d of %d bits", n, k-1, len(want)-1)
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
			lo, hi := a%(n+1), b%(n+1)
			want := 0
			for j := lo; j < hi; j++ {
				if model[j] {
					want++
				}
			}
			if got := h.CountRange(lo, hi); got != want {
				t.Fatalf("n=%d: CountRange(%d,%d) = %d, model %d", n, lo, hi, got, want)
			}
		case 6:
			check()
		case 7:
			if b%64 == 0 { // rare, or no program ever fills a bitmap
				h.Clear()
				clear(model)
			}
		}
	}
	check()
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

// FuzzHierBitmap lets the fuzzer write the program and pick the size.
func FuzzHierBitmap(f *testing.F) {
	for _, n := range bitmapSizes {
		f.Add(uint16(n), []byte{0, 0, 0, 0, 0, 2, 0xff, 0xff, 0, 0, 5, 0, 0, 0xff, 0xff, 7, 0, 0, 0, 0, 1, 0x0f, 0xff, 0, 0})
	}
	f.Fuzz(func(t *testing.T, size uint16, ops []byte) {
		runBitmapOps(t, 1+int(size)%8300, ops)
	})
}

func TestHierBitmapCountRangeClamps(t *testing.T) {
	b := NewHierBitmap(100)
	b.Set(0)
	b.Set(99)
	if got := b.CountRange(-5, 1000); got != 2 {
		t.Errorf("clamped CountRange = %d, want 2", got)
	}
	if got := b.CountRange(50, 50); got != 0 {
		t.Errorf("empty CountRange = %d, want 0", got)
	}
	if got := b.CountRange(70, 30); got != 0 {
		t.Errorf("inverted CountRange = %d, want 0", got)
	}
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
	if b.Count() != n {
		t.Errorf("Count = %d", b.Count())
	}
	// Every summary mark must have survived the racing setters: a lost
	// mark would hide a populated word from the scans.
	if got := len(b.AppendSet(nil)); got != n {
		t.Errorf("AppendSet found %d bits, want %d", got, n)
	}
}

// TestHierBitmapSparseScanTouchesSummary sets one bit far into a large
// bitmap and checks the scans still find it (the summary-skip paths).
func TestHierBitmapSparseScanTouchesSummary(t *testing.T) {
	const n = 1 << 20
	b := NewHierBitmap(n)
	b.Set(n - 2)
	if got := b.NextSet(0); got != n-2 {
		t.Errorf("NextSet(0) = %d, want %d", got, n-2)
	}
	if got := b.CountRange(0, n); got != 1 {
		t.Errorf("CountRange = %d, want 1", got)
	}
	s := b.AppendSet(nil)
	if len(s) != 1 || s[0] != n-2 {
		t.Errorf("AppendSet = %v", s)
	}
	b.Clear()
	if b.Count() != 0 || b.NextSet(0) != -1 {
		t.Error("Clear left bits behind")
	}
}
