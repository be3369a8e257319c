// Fixture for the overflowconv analyzer: a non-constant width-reducing
// integer conversion is reported wherever it is written, guarded or not;
// only the checked helpers (fixture internal/narrow) may contain one.
package property

// Positive: nothing bounds n.
func toID(n int) int32 {
	return int32(n) // want "narrowing conversion int32\\(n\\) from int"
}

// Positive: a 64-bit size into a 32-bit record field.
func toSize(n uint64) uint32 {
	return uint32(n) // want "narrowing conversion uint32\\(n\\) from uint64"
}

// Positive: a hand-written guard is not accepted; only the checked
// helpers are.
func toIDGuarded(n int) int32 {
	if n < 0 || n > 1<<31-1 {
		panic("index overflows int32")
	}
	return int32(n) // want "narrowing conversion int32\\(n\\) from int"
}

// Positive: nor is a loop bound, however tight.
func counters(m []int8) []int32 {
	out := make([]int32, 0, len(m))
	if len(m) > 1<<31-1 {
		panic("too long")
	}
	for i := 0; i < len(m); i++ {
		out = append(out, int32(i)) // want "narrowing conversion int32\\(i\\) from int"
	}
	return out
}

// Negative: widening is always value-preserving.
func widen(x int32) int64 {
	return int64(x)
}

// Negative: same-width sign reinterpretation is deliberate in hashing
// and encoding code.
func reinterpret(x int64) uint64 {
	return uint64(x)
}

// Negative: constant conversions are the type checker's department.
func constants() int32 {
	return int32(7)
}
