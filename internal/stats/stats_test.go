package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunning(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if math.Abs(r.Std()-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", r.Std())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", r.Min(), r.Max())
	}
	if math.Abs(r.CV()-0.4) > 1e-12 {
		t.Errorf("CV = %v, want 0.4", r.CV())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.CV() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	for _, v := range []uint64{0, 1, 1, 2, 3, 4, 7, 8, 1000} {
		h.Add(v)
	}
	if h.Total() != 9 {
		t.Errorf("Total = %d", h.Total())
	}
	c, lo, hi := h.Bucket(0)
	if c != 1 || lo != 0 || hi != 1 {
		t.Errorf("bucket 0 = %d [%d,%d)", c, lo, hi)
	}
	c, lo, hi = h.Bucket(1) // value 1
	if c != 2 || lo != 1 || hi != 2 {
		t.Errorf("bucket 1 = %d [%d,%d)", c, lo, hi)
	}
	c, lo, hi = h.Bucket(2) // values 2,3
	if c != 2 || lo != 2 || hi != 4 {
		t.Errorf("bucket 2 = %d [%d,%d)", c, lo, hi)
	}
	c, _, _ = h.Bucket(3) // values 4..7
	if c != 2 {
		t.Errorf("bucket 3 = %d", c)
	}
	if c, _, _ := h.Bucket(99); c != 0 {
		t.Error("out-of-range bucket should be 0")
	}
	if h.String() == "" {
		t.Error("String should render")
	}
}

// TestHistogramBucketBounds puts the least and the greatest value of every
// bucket into a histogram of its own and checks the bucket and the range
// it reports, up to the top bucket, whose 2^64 bound a uint64 cannot hold.
func TestHistogramBucketBounds(t *testing.T) {
	for i := 1; i <= 64; i++ {
		least := uint64(1) << (i - 1)
		greatest := least<<1 - 1 // wraps to MaxUint64 at i == 64
		for _, v := range []uint64{least, greatest} {
			h := NewHistogram()
			h.Add(v)
			c, lo, hi := h.Bucket(i)
			if c != 1 || v < lo || (i < 64 && v >= hi) || lo != least {
				t.Fatalf("value %d: bucket %d = %d [%d,%d)", v, i, c, lo, hi)
			}
		}
	}
	h := NewHistogram()
	h.Add(math.MaxUint64)
	if _, lo, hi := h.Bucket(64); lo != 1<<63 || hi != math.MaxUint64 {
		t.Errorf("top bucket = [%d,%d]", lo, hi)
	}
	if got, want := h.String(), "[9223372036854775808,18446744073709551615]: 1\n"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extremes wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Must not mutate input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("Percentile mutated input")
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(xs []float64, p uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q := Percentile(xs, float64(p%101))
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return q >= lo && q <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeans(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if GeoMean([]float64{-1, 0}) != 0 {
		t.Error("GeoMean of non-positives should be 0")
	}
	// Non-positives are skipped, not zeroed.
	if got := GeoMean([]float64{0, 4, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean skipping zero = %v, want 4", got)
	}
}
