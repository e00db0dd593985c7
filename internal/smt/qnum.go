package smt

import (
	"math"
	"math/big"
)

// qnum is a rational number with an int64 fast path. Simplex coefficients
// in consolidation queries are tiny, so virtually all arithmetic stays in
// machine words; any operation that would overflow promotes the value to a
// big.Rat permanently. The zero value is 0.
//
// Invariants for the fast path (big == nil): den > 0 and gcd(|num|, den) = 1.
type qnum struct {
	num, den int64
	big      *big.Rat
}

var (
	qZero = qnum{num: 0, den: 1}
	qOne  = qnum{num: 1, den: 1}
)

// qInt returns the rational v/1.
func qInt(v int64) qnum { return qnum{num: v, den: 1} }

// gcd64 computes gcd(|a|, |b|) in uint64 so that |math.MinInt64| = 2⁶³
// does not overflow during negation. The one unrepresentable result,
// gcd = 2⁶³ itself (both magnitudes 2⁶³, or one is 2⁶³ and the other 0),
// degrades to 1 — a common divisor, so reductions stay correct, merely
// less aggressive.
func gcd64(a, b int64) int64 {
	ua, ub := absU64(a), absU64(b)
	for ub != 0 {
		ua, ub = ub, ua%ub
	}
	if ua == 0 || ua > math.MaxInt64 {
		return 1
	}
	return int64(ua)
}

// absU64 is |v| as a uint64; unlike int64 negation it is exact for
// math.MinInt64 (two's-complement negation wraps to the right magnitude).
func absU64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// qnorm builds a normalised fast-path rational, assuming no overflow
// occurred while producing n and d.
func qnorm(n, d int64) qnum {
	if d == 1 {
		// Already normalised: den > 0 and gcd(|n|, 1) = 1.
		return qnum{num: n, den: 1}
	}
	if n == math.MinInt64 || d == math.MinInt64 {
		// The sign-fix below negates; -MinInt64 overflows. Normalise in
		// big.Rat instead and drop back to the fast path when the reduced
		// value fits (e.g. MinInt64/2 = -2⁶²).
		return qFromBig(new(big.Rat).SetFrac64(n, d))
	}
	if d < 0 {
		n, d = -n, -d
	}
	g := gcd64(n, d)
	return qnum{num: n / g, den: d / g}
}

// mul64 multiplies with overflow detection.
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	r := a * b
	// r/a != b catches every overflow except -1 * MinInt64, where the
	// wrapped product MinInt64 divided by -1 wraps back to MinInt64 == b.
	if r/a != b || (a == -1 && b == math.MinInt64) {
		return 0, false
	}
	return r, true
}

func add64(a, b int64) (int64, bool) {
	r := a + b
	if (b > 0 && r < a) || (b < 0 && r > a) {
		return 0, false
	}
	return r, true
}

func (q qnum) toBig() *big.Rat {
	if q.big != nil {
		return q.big
	}
	return big.NewRat(q.num, q.den)
}

func qFromBig(r *big.Rat) qnum {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		return qnum{num: r.Num().Int64(), den: r.Denom().Int64()}
	}
	return qnum{big: r}
}

// qAdd returns a + b.
func qAdd(a, b qnum) qnum {
	if a.big == nil && b.big == nil {
		if a.den == 1 && b.den == 1 {
			// Integer + integer, by far the common case on this workload.
			if n, ok := add64(a.num, b.num); ok {
				return qnum{num: n, den: 1}
			}
		} else {
			// a.num/a.den + b.num/b.den with cross-multiplication.
			n1, ok1 := mul64(a.num, b.den)
			n2, ok2 := mul64(b.num, a.den)
			d, ok3 := mul64(a.den, b.den)
			if ok1 && ok2 && ok3 {
				if n, ok := add64(n1, n2); ok {
					return qnorm(n, d)
				}
			}
		}
	}
	return qFromBig(new(big.Rat).Add(a.toBig(), b.toBig()))
}

// qSub returns a - b.
func qSub(a, b qnum) qnum { return qAdd(a, qNeg(b)) }

// qNeg returns -a.
func qNeg(a qnum) qnum {
	if a.big == nil {
		if a.num == -a.num && a.num != 0 { // MinInt64
			return qFromBig(new(big.Rat).Neg(a.toBig()))
		}
		return qnum{num: -a.num, den: a.den}
	}
	return qFromBig(new(big.Rat).Neg(a.big))
}

// qMul returns a * b.
func qMul(a, b qnum) qnum {
	if a.big == nil && b.big == nil {
		if a.den == 1 && b.den == 1 {
			// Integer × integer, by far the common case on this workload.
			if n, ok := mul64(a.num, b.num); ok {
				return qnum{num: n, den: 1}
			}
		} else {
			// Cross-reduce before multiplying to keep magnitudes small.
			g1 := gcd64(a.num, b.den)
			g2 := gcd64(b.num, a.den)
			n1, d1 := a.num/g1, b.den/g1
			n2, d2 := b.num/g2, a.den/g2
			n, ok1 := mul64(n1, n2)
			d, ok2 := mul64(d1, d2)
			if ok1 && ok2 {
				return qnorm(n, d)
			}
		}
	}
	return qFromBig(new(big.Rat).Mul(a.toBig(), b.toBig()))
}

// qDiv returns a / b; b must be nonzero.
func qDiv(a, b qnum) qnum {
	// The fast-path reciprocal swaps num and den; normSign then negates
	// both when b was negative, which overflows for num = MinInt64.
	if b.big == nil && b.num != math.MinInt64 {
		return qMul(a, qnum{num: b.den, den: b.num, big: nil}.normSign())
	}
	return qFromBig(new(big.Rat).Quo(a.toBig(), b.toBig()))
}

func (q qnum) normSign() qnum {
	if q.big == nil && q.den < 0 {
		return qnum{num: -q.num, den: -q.den}
	}
	return q
}

// qCmp compares a and b: -1, 0, or +1.
func qCmp(a, b qnum) int {
	if a.big == nil && b.big == nil {
		if a.den == 1 && b.den == 1 {
			switch {
			case a.num < b.num:
				return -1
			case a.num > b.num:
				return 1
			default:
				return 0
			}
		}
		l, ok1 := mul64(a.num, b.den)
		r, ok2 := mul64(b.num, a.den)
		if ok1 && ok2 {
			switch {
			case l < r:
				return -1
			case l > r:
				return 1
			default:
				return 0
			}
		}
	}
	return a.toBig().Cmp(b.toBig())
}

// qSign reports the sign of a.
func (q qnum) qSign() int {
	if q.big == nil {
		switch {
		case q.num < 0:
			return -1
		case q.num > 0:
			return 1
		default:
			return 0
		}
	}
	return q.big.Sign()
}

// qIsInt reports whether a is an integer.
func (q qnum) qIsInt() bool {
	if q.big == nil {
		return q.den == 1
	}
	return q.big.IsInt()
}

// qInt64 returns q as an int64 when it is an integer that fits one.
func (q qnum) qInt64() (int64, bool) {
	if q.big == nil {
		return q.num, q.den == 1
	}
	if !q.big.IsInt() || !q.big.Num().IsInt64() {
		return 0, false
	}
	return q.big.Num().Int64(), true
}

// qFloorCeil returns ⌊q⌋ and ⌈q⌉ for a non-integer q.
func qFloorCeil(q qnum) (qnum, qnum) {
	if q.big == nil {
		fl := q.num / q.den
		if q.num < 0 && q.num%q.den != 0 {
			fl--
		}
		return qInt(fl), qInt(fl + 1)
	}
	num := q.big.Num()
	den := q.big.Denom()
	fl := new(big.Int).Div(num, den)
	cl := new(big.Int).Add(fl, big.NewInt(1))
	return qFromBig(new(big.Rat).SetInt(fl)), qFromBig(new(big.Rat).SetInt(cl))
}
