package analysis

import (
	"fmt"
	"go/types"
	"math"
	"math/bits"
	"strconv"
)

// This file implements the value-range abstract domain of the range
// analysis (rangeanal.go), which no graphbig-vet analyzer runs since
// overflowconv became syntactic: intervals over 64-bit
// integers whose endpoints may be symbolic — a constant offset from a
// local variable ("n-1") or from the length of a local slice
// ("len(vs)-1"). Symbolic endpoints are what make slice-index proofs
// work without a full relational domain: the canonical hot loop
//
//	for i := 0; i < len(s); i++ { ... s[i] ... }
//
// refines i to [0, len(s)-1] on the loop's true edge, and the prover
// (rangeanal.go) discharges s[i] by comparing the symbolic endpoints
// directly instead of collapsing them to ±inf first.
//
// The lattice has unbounded height (constant endpoints can grow
// indefinitely around a loop), so rangeanal pairs it with widening at
// retreating edges (endpoints that keep moving jump to ±inf) followed by
// bounded narrowing passes, the classic interval-domain recipe.

// Bound is one interval endpoint: K + base, where the base is nothing
// (a plain constant), a local integer variable Sym, or len(Sym) for a
// local slice/string/array Sym; or an infinity when Inf is nonzero.
type Bound struct {
	// Inf is -1 for -inf, +1 for +inf, 0 for a finite endpoint.
	Inf int
	// K is the constant part (the whole value when Sym is nil).
	K int64
	// Sym, when non-nil, makes the endpoint symbolic: K+Sym, or
	// K+len(Sym) when IsLen is set. Only non-escaping local variables
	// are ever used as symbols; rangeanal drops bounds whose symbol is
	// reassigned.
	Sym   types.Object
	IsLen bool
}

// NegInf and PosInf are the infinite endpoints.
func NegInf() Bound { return Bound{Inf: -1} }
func PosInf() Bound { return Bound{Inf: +1} }

// ConstBound is the concrete endpoint k.
func ConstBound(k int64) Bound { return Bound{K: k} }

// SymBound is the endpoint k+sym (or k+len(sym) when isLen is set).
func SymBound(sym types.Object, k int64, isLen bool) Bound {
	return Bound{K: k, Sym: sym, IsLen: isLen}
}

func (b Bound) isConst() bool            { return b.Inf == 0 && b.Sym == nil }
func (b Bound) refs(o types.Object) bool { return b.Sym != nil && b.Sym == o }

// AddK shifts a finite endpoint by k, saturating to the matching
// infinity on int64 overflow (the conservative direction either way,
// since an overflowed endpoint is only ever used as "don't know").
func (b Bound) AddK(k int64) Bound {
	if b.Inf != 0 {
		return b
	}
	s, ok := addInt64(b.K, k)
	if !ok {
		if (b.K > 0) == (k > 0) && b.K > 0 {
			return PosInf()
		}
		return NegInf()
	}
	b.K = s
	return b
}

func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// leqBound reports that a <= b is provable without environment lookups.
// Decidable cases: infinities, same-symbol endpoints (compare offsets),
// and a constant versus a len-symbol (len >= 0, so k1 <= k2+len(x)
// whenever k1 <= k2). Everything else is "unknown", reported as false.
func leqBound(a, b Bound) bool {
	switch {
	case a.Inf == -1 || b.Inf == +1:
		return true
	case a.Inf == +1:
		return b.Inf == +1
	case b.Inf == -1:
		return false
	case a.Sym == b.Sym && a.IsLen == b.IsLen:
		return a.K <= b.K
	case a.Sym == nil && b.Sym != nil && b.IsLen:
		return a.K <= b.K // len(x) >= 0
	case a.Sym != nil && a.IsLen && b.Sym == nil:
		// len(x) <= maxSliceLen, so len(x)+k1 <= k2 once
		// maxSliceLen+k1 <= k2. This keeps symbolic length bounds
		// alive through meets with integer type ranges.
		if s, ok := addInt64(maxSliceLen, a.K); ok {
			return s <= b.K
		}
		return false
	}
	return false
}

// maxSliceLen bounds len() of any slice or string: lengths are ints.
const maxSliceLen = int64(math.MaxInt64) >> (64 - intWidth)

func boundEq(a, b Bound) bool { return a == b }

// joinLo is the lower endpoint of the union: the provable minimum, or
// -inf when the endpoints are incomparable.
func joinLo(a, b Bound) Bound {
	if leqBound(a, b) {
		return a
	}
	if leqBound(b, a) {
		return b
	}
	return NegInf()
}

// joinHi is the upper endpoint of the union: the provable maximum, or
// +inf when the endpoints are incomparable.
func joinHi(a, b Bound) Bound {
	if leqBound(a, b) {
		return b
	}
	if leqBound(b, a) {
		return a
	}
	return PosInf()
}

// meetLo tightens a lower endpoint with new knowledge b (intersection).
// When the endpoints are incomparable both are sound; keep the incoming
// refinement — it is the fresher fact, and rangeanal preserves the older
// one through side channels (the len-link on assignments).
func meetLo(a, b Bound) Bound {
	if leqBound(b, a) {
		return a
	}
	return b
}

func meetHi(a, b Bound) Bound {
	if leqBound(a, b) {
		return a
	}
	return b
}

// Interval is a (possibly symbolic) integer range [Lo, Hi]. The zero
// value is the point interval [0, 0]. An interval with Lo > Hi denotes
// an infeasible path; callers never need to test for that — facts on a
// dead edge prove anything, which is the sound direction.
type Interval struct {
	Lo, Hi Bound
}

// Full is the unconstrained interval (-inf, +inf).
func Full() Interval { return Interval{Lo: NegInf(), Hi: PosInf()} }

// Point is the single-value interval [k, k].
func Point(k int64) Interval { return Interval{Lo: ConstBound(k), Hi: ConstBound(k)} }

// IsFull reports the interval carries no information.
func (iv Interval) IsFull() bool { return iv.Lo.Inf == -1 && iv.Hi.Inf == +1 }

// Join is the lattice join (smallest representable superset).
func (iv Interval) Join(o Interval) Interval {
	return Interval{Lo: joinLo(iv.Lo, o.Lo), Hi: joinHi(iv.Hi, o.Hi)}
}

// Meet intersects with new knowledge, preferring the incoming endpoint
// when symbolic endpoints are incomparable (see meetLo).
func (iv Interval) Meet(o Interval) Interval {
	return Interval{Lo: meetLo(iv.Lo, o.Lo), Hi: meetHi(iv.Hi, o.Hi)}
}

// Widen jumps endpoints that moved since old to ±inf — the standard
// interval widening that bounds fixpoint iteration on loops.
func (iv Interval) Widen(merged Interval) Interval {
	w := merged
	if !boundEq(iv.Lo, merged.Lo) {
		w.Lo = NegInf()
	}
	if !boundEq(iv.Hi, merged.Hi) {
		w.Hi = PosInf()
	}
	return w
}

// Add is interval addition. Symbolic endpoints survive addition of a
// constant endpoint; adding two symbolic endpoints loses to infinity.
func (iv Interval) Add(o Interval) Interval {
	return Interval{Lo: addBound(iv.Lo, o.Lo, -1), Hi: addBound(iv.Hi, o.Hi, +1)}
}

func addBound(a, b Bound, dir int) Bound {
	inf := Bound{Inf: dir}
	if a.Inf != 0 || b.Inf != 0 {
		if a.Inf == dir || b.Inf == dir || a.Inf != 0 && b.Inf != 0 {
			return inf
		}
		// finite + opposite infinity
		return Bound{Inf: -dir}
	}
	switch {
	case a.Sym == nil:
		return b.AddK(a.K)
	case b.Sym == nil:
		return a.AddK(b.K)
	}
	return inf // sym + sym: not representable
}

// Sub is interval subtraction; same-symbol endpoints cancel, which is
// what proves `hi - lo` style extents.
func (iv Interval) Sub(o Interval) Interval {
	return Interval{Lo: subBound(iv.Lo, o.Hi, -1), Hi: subBound(iv.Hi, o.Lo, +1)}
}

func subBound(a, b Bound, dir int) Bound {
	if a.Inf != 0 || b.Inf != 0 {
		if a.Inf == dir || b.Inf == -dir || a.Inf != 0 && b.Inf != 0 {
			return Bound{Inf: dir}
		}
		return Bound{Inf: -dir}
	}
	switch {
	case b.Sym == nil:
		if b.K == math.MinInt64 {
			return Bound{Inf: dir} // -MinInt64 is unrepresentable
		}
		return a.AddK(-b.K)
	case a.Sym == b.Sym && a.IsLen == b.IsLen:
		d, ok := addInt64(a.K, -b.K)
		if !ok {
			return Bound{Inf: dir}
		}
		return ConstBound(d)
	}
	return Bound{Inf: dir}
}

// Neg negates the interval.
func (iv Interval) Neg() Interval {
	return Point(0).Sub(iv)
}

// Mul multiplies; only concrete endpoints are tracked.
func (iv Interval) Mul(o Interval) Interval {
	if !iv.Lo.isConst() || !iv.Hi.isConst() || !o.Lo.isConst() || !o.Hi.isConst() {
		// One common symbolic case matters for addressing math: a
		// non-negative symbolic range times a non-negative constant
		// range keeps a zero lower bound.
		if leqBound(ConstBound(0), iv.Lo) && leqBound(ConstBound(0), o.Lo) {
			return Interval{Lo: ConstBound(0), Hi: PosInf()}
		}
		return Full()
	}
	vals := make([]int64, 0, 4)
	for _, a := range [2]int64{iv.Lo.K, iv.Hi.K} {
		for _, b := range [2]int64{o.Lo.K, o.Hi.K} {
			p, ok := mulInt64(a, b)
			if !ok {
				return Full()
			}
			vals = append(vals, p)
		}
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return Interval{Lo: ConstBound(lo), Hi: ConstBound(hi)}
}

// Div is integer division (Go truncated semantics). For a non-negative
// dividend and a positive divisor the quotient never exceeds the
// dividend, which keeps symbolic upper bounds alive through `x / 2`.
func (iv Interval) Div(o Interval) Interval {
	// Fully concrete with a positive divisor: exact corner combination.
	// (Negative divisors are skipped so MinInt64 / -1 cannot arise.)
	if iv.Lo.isConst() && iv.Hi.isConst() && o.Lo.isConst() && o.Hi.isConst() &&
		o.Lo.K > 0 {
		vals := []int64{iv.Lo.K / o.Lo.K, iv.Lo.K / o.Hi.K, iv.Hi.K / o.Lo.K, iv.Hi.K / o.Hi.K}
		lo, hi := vals[0], vals[0]
		for _, v := range vals[1:] {
			lo, hi = min(lo, v), max(hi, v)
		}
		return Interval{Lo: ConstBound(lo), Hi: ConstBound(hi)}
	}
	if leqBound(ConstBound(1), o.Lo) && leqBound(ConstBound(0), iv.Lo) {
		return Interval{Lo: ConstBound(0), Hi: iv.Hi}
	}
	return Full()
}

// Rem is the remainder x % y. For y with a positive lower bound the
// result of a non-negative x lies in [0, hi(y)-1] — symbolically too,
// which proves `i % n` indexing into an n-element table.
func (iv Interval) Rem(o Interval) Interval {
	if leqBound(ConstBound(1), o.Lo) {
		hi := o.Hi.AddK(-1)
		if leqBound(ConstBound(0), iv.Lo) {
			// 0 <= x%y <= min(x, y-1)
			return Interval{Lo: ConstBound(0), Hi: meetHi(iv.Hi, hi)}
		}
		return Interval{Lo: negBound(hi), Hi: hi}
	}
	return Full()
}

func negBound(b Bound) Bound {
	if b.Inf != 0 {
		return Bound{Inf: -b.Inf}
	}
	if b.Sym != nil {
		return Bound{Inf: -1} // -(k+sym): not representable; callers want a lower bound
	}
	if b.K == math.MinInt64 {
		return PosInf()
	}
	return ConstBound(-b.K)
}

// Shl is x << s for non-negative x and a known shift range. A shift
// whose result could exceed 62 bits may wrap at the concrete width, so
// the whole interval degrades to Full then.
func (iv Interval) Shl(o Interval) Interval {
	if !leqBound(ConstBound(0), iv.Lo) || !o.Lo.isConst() || !o.Hi.isConst() ||
		o.Lo.K < 0 || o.Hi.K > 62 {
		return Full()
	}
	if !iv.Hi.isConst() || iv.Hi.K != 0 && bits.Len64(uint64(iv.Hi.K)) > 62-int(o.Hi.K) {
		return Full() // may wrap at the concrete width (sign included)
	}
	lo := ConstBound(0)
	if iv.Lo.isConst() {
		lo = ConstBound(iv.Lo.K << o.Lo.K)
	}
	return Interval{Lo: lo, Hi: ConstBound(iv.Hi.K << o.Hi.K)}
}

// Shr is x >> s for non-negative x: the result shrinks toward zero, so
// [0, hi(x)] is always sound and keeps symbolic upper bounds.
func (iv Interval) Shr(o Interval) Interval {
	if !leqBound(ConstBound(0), iv.Lo) {
		return Full()
	}
	return Interval{Lo: ConstBound(0), Hi: iv.Hi}
}

// And is bitwise x & y. For non-negative operands the result is bounded
// by each operand — the mask idiom `h & (n-1)`.
func (iv Interval) And(o Interval) Interval {
	if leqBound(ConstBound(0), iv.Lo) && leqBound(ConstBound(0), o.Lo) {
		return Interval{Lo: ConstBound(0), Hi: meetHi(iv.Hi, o.Hi)}
	}
	return Full()
}

// OrXor covers |, ^ and &^: for non-negative operands the result is
// non-negative (no tight upper bound is tracked).
func (iv Interval) OrXor(o Interval) Interval {
	if leqBound(ConstBound(0), iv.Lo) && leqBound(ConstBound(0), o.Lo) {
		return Interval{Lo: ConstBound(0), Hi: PosInf()}
	}
	return Full()
}

// String renders the interval for diagnostics: "[0, len(vs)-1]".
func (iv Interval) String() string {
	return "[" + iv.Lo.String() + ", " + iv.Hi.String() + "]"
}

func (b Bound) String() string {
	switch {
	case b.Inf < 0:
		return "-inf"
	case b.Inf > 0:
		return "+inf"
	case b.Sym == nil:
		return strconv.FormatInt(b.K, 10)
	}
	base := b.Sym.Name()
	if b.IsLen {
		base = "len(" + base + ")"
	}
	switch {
	case b.K > 0:
		return fmt.Sprintf("%s+%d", base, b.K)
	case b.K < 0:
		return fmt.Sprintf("%s%d", base, b.K)
	}
	return base
}

// intWidth is the width of int/uint on the analyzing platform. The
// range analysis proves properties of the binary CI builds and ships (amd64 /
// arm64: 64-bit), and using the host width keeps the tool honest when
// someone does run it on a 32-bit host.
const intWidth = bits.UintSize

// TypeRange returns the representable interval of t for integer basic
// types (named or not), and ok=false otherwise. Unsigned 64-bit ranges
// use +inf as the upper endpoint since MaxUint64 exceeds int64.
func TypeRange(t types.Type) (Interval, bool) {
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return Full(), false
	}
	w, signed := intKindWidth(basic.Kind())
	if w < 8 { // 0 for non-integer kinds; also proves w-1 below is a valid shift
		return Full(), false
	}
	if signed {
		if w == 64 {
			return Interval{Lo: ConstBound(math.MinInt64), Hi: ConstBound(math.MaxInt64)}, true
		}
		return Interval{Lo: ConstBound(-(int64(1) << (w - 1))), Hi: ConstBound(int64(1)<<(w-1) - 1)}, true
	}
	if w == 64 {
		return Interval{Lo: ConstBound(0), Hi: PosInf()}, true
	}
	return Interval{Lo: ConstBound(0), Hi: ConstBound(int64(1)<<w - 1)}, true
}

// intKindWidth maps an integer basic kind to (bit width, signedness);
// width 0 for non-integer kinds.
func intKindWidth(k types.BasicKind) (int, bool) {
	switch k {
	case types.Int, types.UntypedInt:
		return intWidth, true
	case types.Int8:
		return 8, true
	case types.Int16:
		return 16, true
	case types.Int32, types.UntypedRune:
		return 32, true
	case types.Int64:
		return 64, true
	case types.Uint, types.Uintptr:
		return intWidth, false
	case types.Uint8:
		return 8, false
	case types.Uint16:
		return 16, false
	case types.Uint32:
		return 32, false
	case types.Uint64:
		return 64, false
	}
	return 0, false
}
