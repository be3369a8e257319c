package g500

import (
	"fmt"
	"testing"
)

func TestRunSmallScale(t *testing.T) {
	cfg := Config{Scale: 9, EdgeFactor: 8, Roots: 4, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices != 512 {
		t.Errorf("vertices = %d, want 512", res.Vertices)
	}
	if len(res.Roots) == 0 || len(res.Roots) > 4 {
		t.Errorf("roots = %d", len(res.Roots))
	}
	for _, r := range res.Roots {
		if r.Reached < 1 || r.Edges < 0 {
			t.Errorf("root %d: reached=%d edges=%d", r.Root, r.Reached, r.Edges)
		}
		if r.TEPS <= 0 {
			t.Errorf("root %d: TEPS = %v", r.Root, r.TEPS)
		}
	}
	if res.HarmonicTEPS <= 0 || res.MedianTEPS <= 0 {
		t.Errorf("aggregate TEPS: harmonic=%v median=%v", res.HarmonicTEPS, res.MedianTEPS)
	}
	// Harmonic mean never exceeds the median of positive samples... it can
	// with two samples, but never exceeds the max.
	maxTEPS := 0.0
	for _, r := range res.Roots {
		if r.TEPS > maxTEPS {
			maxTEPS = r.TEPS
		}
	}
	if res.HarmonicTEPS > maxTEPS {
		t.Error("harmonic mean exceeds max sample")
	}
}

func TestRunRejectsTinyScale(t *testing.T) {
	if _, err := Run(Config{Scale: 1}); err == nil {
		t.Error("scale 1 should be rejected")
	}
}

func TestRunRejectsNoRoots(t *testing.T) {
	for _, roots := range []int{0, -2} {
		_, err := Run(Config{Scale: 6, EdgeFactor: 4, Roots: roots})
		if err == nil || err.Error() != fmt.Sprintf("g500: %d roots, want at least 1", roots) {
			t.Errorf("roots %d: err = %v", roots, err)
		}
	}
}

func TestHarmonic(t *testing.T) {
	if h := harmonic([]float64{2, 2, 2}); h != 2 {
		t.Errorf("harmonic = %v", h)
	}
	if h := harmonic([]float64{0, -1}); h != 0 {
		t.Errorf("harmonic of non-positives = %v", h)
	}
}
