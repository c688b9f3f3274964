//go:build !s390x

package radio

import "math"

// pow10Bound bounds the exponents pow10 evaluates itself: |y| <
// pow10Bound. The medium's dBm/10 values lie far inside it; everything
// outside goes to math.Pow.
const pow10Bound = 64

// pow10Int is what math.Pow(10, y)'s squaring loop multiplies in for an
// integer part n of |y|: the mantissa factors x1 it applies, in the
// loop's order, and the powers of two 2^±ae its final math.Ldexp scales
// by.
type pow10Int struct {
	x1       [6]float64 // n ≤ 64 has at most 6 set bits
	nx       int
	pos, neg float64 // 2^ae and 2^−ae
}

var (
	// ln10 is math.Log(10), the value math.Pow computes for x = 10. It
	// is computed rather than taken from the constant math.Ln10 so that
	// it stays what math.Log returns on any architecture.
	ln10       = math.Log(10)
	pow10Table = buildPow10Table()
)

// buildPow10Table runs math.Pow's Frexp-and-square loop for x = 10 once
// per integer part n and records its factors. For x = 10 and n ≤
// pow10Bound the binary exponent never nears the loop's ±2¹² overflow
// guard, so the guard is not reproduced.
func buildPow10Table() (t [pow10Bound + 1]pow10Int) {
	for n := range t {
		e := &t[n]
		x1, xe := math.Frexp(10)
		ae := 0
		for i := n; i != 0; i >>= 1 {
			if i&1 == 1 {
				e.x1[e.nx] = x1
				e.nx++
				ae += xe
			}
			x1 *= x1
			xe <<= 1
			if x1 < .5 {
				x1 += x1
				xe--
			}
		}
		e.pos, e.neg = math.Ldexp(1, ae), math.Ldexp(1, -ae)
	}
	return t
}

// pow10 returns math.Pow(10, y) bit for bit, in about a third of its time. It
// runs the stdlib's pure-Go algorithm step by step — the fractional part
// folded into (−0.5, 0.5] and raised through math.Exp, the integer part
// multiplied in factor by factor in the same order, the reciprocal taken
// before the power-of-two scaling — with ln 10 and the squarings
// precomputed. Every step rounds exactly as math.Pow's does, and the
// steps that differ in form are exact: the integer/fraction split of
// |y| < 64 by int conversion equals math.Modf's, and for |y| <
// pow10Bound the result lies far inside the normal range, where scaling
// by 2^±ae is one exact multiply, as math.Ldexp's is. The inputs
// math.Pow special-cases (NaN, ±Inf, 0, 1, ±0.5) and |y| ≥ pow10Bound go
// to math.Pow itself. TestPow10MatchesMathPow is the guard should a Go
// release change math.Pow.
func pow10(y float64) float64 {
	ay := math.Abs(y)
	if !(ay < pow10Bound) || y == 0 || y == 1 || ay == 0.5 { // NaN fails the bound
		return math.Pow(10, y)
	}
	n := int(ay)
	a1 := 1.0
	if yf := ay - float64(n); yf != 0 {
		if yf > 0.5 {
			yf--
			n++
		}
		a1 = math.Exp(yf * ln10)
	}
	e := &pow10Table[n]
	for _, x1 := range e.x1[:e.nx] {
		a1 *= x1
	}
	if y < 0 {
		return 1 / a1 * e.neg
	}
	return a1 * e.pos
}
