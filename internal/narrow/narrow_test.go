package narrow

import (
	"math"
	"testing"
)

// TestBoundaries pins each helper's accepted range at both ends: the
// target type's maximum converts exactly, and one past it or -1 panics.
func TestBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		conv   func() uint64
		want   uint64
		panics bool
	}{
		{"Index32(0)", func() uint64 { return uint64(Index32(0)) }, 0, false},
		{"Index32(MaxInt32)", func() uint64 { return uint64(Index32(math.MaxInt32)) }, math.MaxInt32, false},
		{"Index32(MaxInt32+1)", func() uint64 { return uint64(Index32(math.MaxInt32 + 1)) }, 0, true},
		{"Index32(-1)", func() uint64 { return uint64(Index32(-1)) }, 0, true},
		{"Index16(0)", func() uint64 { return uint64(Index16(0)) }, 0, false},
		{"Index16(MaxUint16)", func() uint64 { return uint64(Index16(math.MaxUint16)) }, math.MaxUint16, false},
		{"Index16(MaxUint16+1)", func() uint64 { return uint64(Index16(math.MaxUint16 + 1)) }, 0, true},
		{"Index16(-1)", func() uint64 { return uint64(Index16(-1)) }, 0, true},
		{"Size32(0)", func() uint64 { return uint64(Size32(0)) }, 0, false},
		{"Size32(MaxUint32)", func() uint64 { return uint64(Size32(math.MaxUint32)) }, math.MaxUint32, false},
		{"Size32(MaxUint32+1)", func() uint64 { return uint64(Size32(math.MaxUint32 + 1)) }, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got uint64
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				got = c.conv()
				return false
			}()
			if panicked != c.panics {
				t.Fatalf("panicked = %v, want %v", panicked, c.panics)
			}
			if !c.panics && got != c.want {
				t.Fatalf("got %d, want %d", got, c.want)
			}
		})
	}
}
