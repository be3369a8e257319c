// Package narrow holds the checked narrowing conversions for the
// int32/uint16/uint32 compact layouts the property store, the CSR
// snapshots and the engine's frontiers use. Each helper guards the full
// range of its target type and panics on overflow, so a silent wrap —
// vertex IDs aliasing after 2^31 inserts, a byte size truncated to zero
// — becomes a loud, attributable failure at the conversion site.
//
// These helpers are the only place graphbig-vet's overflowconv analyzer
// accepts a non-constant width-reducing integer conversion. The package
// imports nothing from the module, so every package, concurrent
// included, can call it.
package narrow

import "math"

// Index32 converts a non-negative index (vertex ID, degree, slot count)
// to int32, panicking when it does not fit.
func Index32(i int) int32 {
	if i < 0 || i > math.MaxInt32 {
		panic("narrow: index overflows int32")
	}
	return int32(i)
}

// Index16 converts a non-negative index (a row of a property chunk) to
// uint16, panicking when it does not fit.
func Index16(i int) uint16 {
	if i < 0 || i > math.MaxUint16 {
		panic("narrow: index overflows uint16")
	}
	return uint16(i)
}

// Size32 converts a byte or element count to uint32, panicking when it
// does not fit.
func Size32(n uint64) uint32 {
	if n > math.MaxUint32 {
		panic("narrow: size overflows uint32")
	}
	return uint32(n)
}
