// Fixture for the determinism analyzer: cmd/graphbig is output scope —
// printed output must be stable, but wall-clock measurement is its job.
package main

import (
	"maps"
	"time"
)

// Positive: maps must be printed in sorted-key order.
func printOrder(m map[string]float64) []string {
	var out []string
	for k, v := range m { // want "range over map is nondeterministically ordered"
		_ = v
		out = append(out, k)
	}
	return out
}

// Positive: map iterators yield in map order too.
func printValues(m map[string]float64) []float64 {
	var out []float64
	for v := range maps.Values(m) { // want "range over maps.Values is nondeterministically ordered"
		out = append(out, 100*v)
	}
	return out
}

// Negative: timing a run is what an output package is for.
func elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}
