package radio

import (
	"math"
	"math/rand/v2"
	"testing"
)

// checkFastMW fails the test unless fastMW(dbm) is within fastMWBound
// relative of dbmToMW(dbm) inside the fast range, and has its bits (any
// NaN for NaN) outside it.
func checkFastMW(t testing.TB, dbm float64) {
	t.Helper()
	got, want := fastMW(dbm), dbmToMW(dbm)
	if !(dbm >= fastMWMinDBm && dbm <= fastMWMaxDBm) {
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("fastMW(%v) = %v outside the fast range, dbmToMW %v", dbm, got, want)
		}
		return
	}
	if !(math.Abs(got-want) <= fastMWBound*want) {
		t.Fatalf("fastMW(%v) = %v, dbmToMW %v: relative error %.3g > %g",
			dbm, got, want, math.Abs(got-want)/want, fastMWBound)
	}
}

// fastMWEdges returns the inputs at the kernel's seams: every dBm value
// where dbm·log₂10/10 crosses a table step's rounding boundary (i + ½)/64
// — the reduced argument is at its extremes there and the table index
// changes — and every one where it is an exact step, each with both
// float neighbours, plus the range edges and inputs beyond them.
func fastMWEdges() []float64 {
	var ds []float64
	c := math.Ln10 / math.Ln2 / 10
	for k := math.Floor(fastMWMinDBm * c * 128); k <= fastMWMaxDBm*c*128; k++ {
		d := k / 128 / c
		ds = append(ds, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
	}
	for _, d := range []float64{fastMWMinDBm, fastMWMaxDBm, 0, -98, -90, 4} {
		ds = append(ds, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)))
	}
	return append(ds, -260, -1000, 100, 400, math.Inf(1), math.Inf(-1), math.NaN())
}

// TestFastMWBound asserts fastMW's stated error against dbmToMW: within
// fastMWBound relative on 10⁷ seeded draws over the whole fast range and
// at every table seam, and equal to dbmToMW outside the range.
func TestFastMWBound(t *testing.T) {
	for _, dbm := range fastMWEdges() {
		checkFastMW(t, dbm)
	}
	rng := rand.New(rand.NewPCG(21, 1))
	worst := 0.0
	for i := 0; i < 10_000_000; i++ {
		dbm := fastMWMinDBm + (fastMWMaxDBm-fastMWMinDBm)*rng.Float64()
		checkFastMW(t, dbm)
		want := dbmToMW(dbm)
		worst = max(worst, math.Abs(fastMW(dbm)-want)/want)
	}
	t.Logf("largest relative error %.3g (bound %g)", worst, fastMWBound)
}

// TestFastMWConstants pins the split of log₂10/10: the high part is its
// nearest float64 and the low part the rounded remainder, both computed
// from Go's exact constant arithmetic.
func TestFastMWConstants(t *testing.T) {
	const c = math.Ln10 / math.Ln2 / 10
	if hi := float64(c); hi != dbToLog2Hi {
		t.Fatalf("dbToLog2Hi = %x, want %x", dbToLog2Hi, hi)
	}
	if lo := float64(c - dbToLog2Hi); lo != dbToLog2Lo {
		t.Fatalf("dbToLog2Lo = %x, want %x", dbToLog2Lo, lo)
	}
}

func FuzzFastMW(f *testing.F) {
	for _, dbm := range []float64{-98, -57.5, fastMWMinDBm, fastMWMaxDBm} {
		f.Add(dbm)
	}
	f.Fuzz(func(t *testing.T, dbm float64) { checkFastMW(t, dbm) })
}
