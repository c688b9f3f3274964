package radio

import "math"

// fastMW converts dBm to milliwatts within fastMWBound relative of
// dbmToMW, several times faster. It writes 10^(dbm/10) as 2^t with t =
// dbm·log₂10/10 and splits t = k + i/64 + r, |r| ≤ 1/128: 2^k goes into
// the exponent field of the table entry 2^(i/64), and 2^r is a degree-5
// Taylor polynomial (truncation below 4e-17). The constant is split in
// two and the reduction taken with a fused multiply-add, so r carries an
// absolute error near 2⁻⁶⁰ and the kernel is within about 5e-16 of the
// true power. dbmToMW itself is within about 6e-15 of it (dbm/10 rounds to an
// absolute 1.8e-15, which the power turns into 4.1e-15 relative, plus
// math.Pow's steps), so the two agree to within fastMWBound.
// TestFastMWBound asserts the bound on 10⁷ seeded draws. Inputs outside
// [fastMWMinDBm, fastMWMaxDBm], NaN included, go to dbmToMW.
func fastMW(dbm float64) float64 {
	if !(dbm >= fastMWMinDBm && dbm <= fastMWMaxDBm) {
		return dbmToMW(dbm)
	}
	// Round t·64 to the nearest integer n by adding 1.5·2⁵², which leaves
	// n in the low mantissa bits (|n| < 2¹⁴).
	nf := dbm*(dbToLog2Hi*64) + 0x1.8p52
	n := int64(int32(math.Float64bits(nf)))
	nf -= 0x1.8p52
	// r = t·64 − n in [−½, ½]; 2^(r/64) = Σ cₖ·rᵏ with cₖ = (ln 2/64)ᵏ/k!.
	r := math.FMA(dbm, dbToLog2Hi*64, -nf) + dbm*(dbToLog2Lo*64)
	r2 := r * r
	p := (1 + r*exp2C1) + r2*((exp2C2+r*exp2C3)+r2*(exp2C4+r*exp2C5))
	// 2^(i/64)·2^k, built in the exponent field: the table entries are
	// normal and k keeps the result normal over the fast range.
	return math.Float64frombits(exp2Table[n&63]+uint64(n>>6)<<52) * p
}

// exp2Ck are the Taylor coefficients (ln 2/64)ᵏ/k! of 2^(r/64).
const (
	exp2C1 = math.Ln2 / 64
	exp2C2 = exp2C1 * exp2C1 / 2
	exp2C3 = exp2C2 * exp2C1 / 3
	exp2C4 = exp2C3 * exp2C1 / 4
	exp2C5 = exp2C4 * exp2C1 / 5
)

// The fast range and bound. Received powers, noise floors and the WiFi
// levels lie far inside the range; a severed link (offset ≤ −200 dB) may
// not, and converts exactly.
const (
	fastMWMinDBm = -200
	fastMWMaxDBm = 30
	fastMWBound  = 1.1e-14
)

// dbToLog2Hi + dbToLog2Lo is log₂10/10, which turns dBm into a base-2
// exponent, to about 2⁻¹⁰⁷ relative: dbToLog2Hi is its nearest float64
// and dbToLog2Lo the rounded remainder (TestFastMWConstants).
const (
	dbToLog2Hi = 0x1.542a5a12e1c5bp-02
	dbToLog2Lo = -0x1.33e2bb36cd142p-56
)

// exp2Table[i] holds the bits of 2^(i/64).
var exp2Table = func() (t [64]uint64) {
	for i := range t {
		t[i] = math.Float64bits(math.Exp2(float64(i) / 64))
	}
	return t
}()
