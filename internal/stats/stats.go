// Package stats provides the small statistical helpers used by the dataset
// generators (degree-distribution checks), the simulators (counter
// summaries) and the experiment harness (per-group aggregation).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates mean and variance online (Welford's algorithm).
type Running struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the population variance.
func (r *Running) Var() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Std returns the population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest sample (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 when empty).
func (r *Running) Max() float64 { return r.max }

// CV returns the coefficient of variation (std/mean), the degree-imbalance
// measure used when validating generator output against the paper's
// data-source taxonomy (Table 2).
func (r *Running) CV() float64 {
	if r.mean == 0 {
		return 0
	}
	return r.Std() / r.mean
}

// Histogram is a power-of-two bucketed histogram for non-negative integers,
// used for degree distributions.
type Histogram struct {
	buckets []uint64 // bucket i counts values in [2^(i-1), 2^i); bucket 0 counts zero
	total   uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one observation of value v.
func (h *Histogram) Add(v uint64) {
	b := 0
	if v > 0 {
		b = bits64(v) // 1 + floor(log2 v)
	}
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
	h.total++
}

func bits64(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Bucket returns the count of bucket i and the half-open value range it
// covers. Bucket 0 is exactly the value 0. The top bucket, 64, holds 2^63
// and up: 2^64 does not fit a uint64, so it reports hi = math.MaxUint64
// and its range is closed.
func (h *Histogram) Bucket(i int) (count, lo, hi uint64) {
	if i < 0 || i >= len(h.buckets) {
		return 0, 0, 0
	}
	switch i {
	case 0:
		return h.buckets[0], 0, 1
	case 64:
		return h.buckets[64], 1 << 63, math.MaxUint64
	}
	return h.buckets[i], 1 << (i - 1), 1 << i
}

// String renders the histogram one bucket per line.
func (h *Histogram) String() string {
	s := ""
	for i := range h.buckets {
		c, lo, hi := h.Bucket(i)
		if c == 0 {
			continue
		}
		end := ")"
		if i == 64 {
			end = "]"
		}
		s += fmt.Sprintf("[%d,%d%s: %d\n", lo, hi, end, c)
	}
	return s
}

// Percentile returns the p-th percentile (0..100) of xs, interpolating
// between ranks. It sorts a copy; xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	if p <= 0 {
		return c[0]
	}
	if p >= 100 {
		return c[len(c)-1]
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(c) {
		return c[lo]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of positive xs, skipping non-positive
// entries (0 when none qualify). Speedup figures aggregate with GeoMean.
func GeoMean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}
