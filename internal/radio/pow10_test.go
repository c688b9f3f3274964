//go:build !s390x

package radio

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkPow10 fails the test unless pow10(y) and math.Pow(10, y) have the
// same bits (any NaN matches any NaN).
func checkPow10(t testing.TB, y float64) {
	t.Helper()
	got, want := pow10(y), math.Pow(10, y)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("pow10(%v) = %v (%#x), math.Pow = %v (%#x)",
			y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// pow10Specials are the inputs math.Pow special-cases, the table bound
// and its neighbours, and results that overflow or go subnormal.
func pow10Specials() []float64 {
	ys := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 0.5, -0.5, 1e6, -1e6, 308.5, 309, -307.5, -320, -400,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64,
	}
	for _, b := range []float64{pow10Bound, pow10Bound - 0.5, pow10Bound + 0.5} {
		for _, y := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			ys = append(ys, y, -y)
		}
	}
	return ys
}

// TestPow10MatchesMathPow pins dbmToMW's kernel to math.Pow(10, y) bit
// for bit: seeded dBm/10 draws over the medium's range and beyond, every
// integer and half-integer the table covers with both float neighbours,
// and every input that falls back to math.Pow.
func TestPow10MatchesMathPow(t *testing.T) {
	for _, y := range pow10Specials() {
		checkPow10(t, y)
	}
	for k := -2 * pow10Bound; k <= 2*pow10Bound; k++ {
		y := float64(k) / 2
		checkPow10(t, y)
		checkPow10(t, math.Nextafter(y, math.Inf(-1)))
		checkPow10(t, math.Nextafter(y, math.Inf(1)))
	}
	rng := rand.New(rand.NewPCG(18, 10))
	for i := 0; i < 10_000_000; i++ {
		dbm := -250 + 300*rng.Float64()
		checkPow10(t, dbm/10)
	}
}

func FuzzPow10(f *testing.F) {
	for _, y := range []float64{-9.8, -0.5, 0.5, -11.37, 2.5, pow10Bound - 0.25} {
		f.Add(y)
	}
	f.Fuzz(func(t *testing.T, y float64) { checkPow10(t, y) })
}
