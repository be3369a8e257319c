// Fixture for the overflowconv analyzer: the checked helpers themselves
// are outside its scope, so their guarded conversions are not reported.
package narrow

import "math"

// Negative: the helper's own conversion.
func Index32(i int) int32 {
	if i < 0 || i > math.MaxInt32 {
		panic("narrow: index overflows int32")
	}
	return int32(i)
}

// Negative: the same holds for every helper.
func Size32(n uint64) uint32 {
	if n > math.MaxUint32 {
		panic("narrow: size overflows uint32")
	}
	return uint32(n)
}
