package radio

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"teleadjust/internal/noise"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// checkBracket fails the test unless the bracket of snr's table cell,
// where it settles, decides u < prrFromSNR(snr, frameBytes). SNRs outside
// (0, prrSaturatedSNR), NaN included, have no bracket: fastDecide settles
// or leaves them before it reaches one. It reports whether the bracket
// settled.
func checkBracket(t testing.TB, u, snr float64, frameBytes int) bool {
	t.Helper()
	if !(snr > 0 && snr < prrSaturatedSNR) {
		return false
	}
	j := int(snr * (1 / prrLogStep))
	ok, settled := bracket(u, j, frameBytes)
	if want := u < prrFromSNR(snr, frameBytes); settled && ok != want {
		t.Fatalf("bracket(%v, %d, %d) at SNR %v = %v, want u < %v = %v",
			u, j, frameBytes, snr, ok, prrFromSNR(snr, frameBytes), want)
	}
	return settled
}

// checkBracketAtPRR checks the draws that sit on the decision's margin
// for one SNR and frame length: 0, the PRR itself and its float
// neighbours, and one uniform draw.
func checkBracketAtPRR(t testing.TB, rng *rand.Rand, snr float64, frameBytes int) {
	t.Helper()
	prr := prrFromSNR(snr, frameBytes)
	for _, u := range []float64{0, prr, math.Nextafter(prr, 0), math.Nextafter(prr, 1), rng.Float64()} {
		checkBracket(t, u, snr, frameBytes)
	}
}

// TestReceivedMatchesCurve pins the draw-first reception decision, the
// table bracket fastDecide settles draws with, to the curve: on 10^7
// seeded (u, SNR, frame length) triples over SNR in (0, 4.5) and every
// frame length the stack sends, and on the margins — u at 0 and at the
// exact PRR with its neighbours, SNRs on every 64th table grid point with
// their neighbours, at the saturation bound and one ulp below it, and
// SNRs of 0, below 0, NaN and ±Inf — a settled bracket must equal u <
// prrFromSNR bit for bit. Nearly all random triples inside the table must
// settle.
func TestReceivedMatchesCurve(t *testing.T) {
	overhead := phyOverheadBytes
	rng := rand.New(rand.NewPCG(20, 1))
	var inTable, settled int
	for i := 0; i < 10_000_000; i++ {
		snr := 4.5 * rng.Float64()
		frameBytes := rng.IntN(maxTestFrameBytes+1) + overhead
		if checkBracket(t, rng.Float64(), snr, frameBytes) {
			settled++
		}
		if snr < prrSaturatedSNR {
			inTable++
		}
	}
	t.Logf("bracket settled %d of %d random triples inside the table", settled, inTable)
	if settled < inTable*99/100 {
		t.Fatalf("bracket settled %d of %d random triples inside the table, want at least 99%%", settled, inTable)
	}
	for i := 0; i < 200_000; i++ {
		checkBracketAtPRR(t, rng, prrSaturatedSNR*rng.Float64(), rng.IntN(maxTestFrameBytes+1)+overhead)
	}
	var snrs []float64
	for j := 0; j <= prrLogSteps; j += 64 {
		s := float64(j) * prrLogStep
		snrs = append(snrs, s, math.Nextafter(s, 0), math.Nextafter(s, math.Inf(1)))
	}
	snrs = append(snrs, prrSaturatedSNR, math.Nextafter(prrSaturatedSNR, 0),
		0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1))
	for _, snr := range snrs {
		for size := 0; size <= maxTestFrameBytes; size++ {
			checkBracketAtPRR(t, rng, snr, size+overhead)
		}
	}
}

// TestPRRLogTableMonotone checks the property the decision's bracket rests
// on, as the table holds it: ln(1 − Pb) never decreases along the grid.
func TestPRRLogTableMonotone(t *testing.T) {
	for j := 1; j < len(prrLogTable); j++ {
		if prrLogTable[j] < prrLogTable[j-1] {
			t.Fatalf("prrLogTable[%d] = %v < prrLogTable[%d] = %v", j, prrLogTable[j], j-1, prrLogTable[j-1])
		}
	}
	if got, want := prrLogTable[0], math.Log1p(-0.5); got != want {
		t.Fatalf("prrLogTable[0] = %v, want ln(1/2) = %v", got, want)
	}
}

func FuzzRxDecide(f *testing.F) {
	f.Add(math.Float64bits(0.5), math.Float64bits(1.5), byte(30))
	f.Add(math.Float64bits(0.999), math.Float64bits(prrSaturatedSNR), byte(127))
	f.Fuzz(func(t *testing.T, uBits, snrBits uint64, size byte) {
		checkBracket(t, math.Float64frombits(uBits), math.Float64frombits(snrBits),
			int(size)+phyOverheadBytes)
	})
}

// countingNoise wraps a noise source and counts its reads, keeping the
// last value read.
type countingNoise struct {
	src   noiseSource
	reads int
	last  float64
}

func (c *countingNoise) ReadAt(t time.Duration) float64 {
	c.reads++
	c.last = c.src.ReadAt(t)
	return c.last
}

// constNoise is a constant noise floor in dBm.
type constNoise float64

func (c constNoise) ReadAt(time.Duration) float64 { return float64(c) }

// TestCCADominanceMatchesFold pins CCABusy's dB decisions to the fold: on
// seeded air sets of 0 to 70 entries (past the 10·log₁₀ table) within
// ±15 dB of the threshold, with terms on the busy and the idle bound
// (on the threshold or its margin either side, give or take a few ulps)
// and sets of equal terms whose sum lands on the threshold, over CPM
// noise and the quiet and a deep constant floor, with WiFi on and off,
// every sample must equal the CCA gate on the arrival-order fold of the
// same noise reading, and the noise source must advance exactly once per
// sample.
func TestCCADominanceMatchesFold(t *testing.T) {
	const seed, samples = 3, 60000
	model := noise.Train(noise.GenerateTrace(20000, 3))
	// A floor of 0 stands for the CPM source. The deep floor lets a
	// lone term near the busy bound decide the sum.
	cases := []struct {
		name  string
		floor float64
		wifi  bool
	}{
		{"cpm", 0, false},
		{"quiet-floor", quietFloorDBm, false},
		{"deep-floor", -170, false},
		{"cpm+wifi", 0, true},
		{"quiet-floor+wifi", quietFloorDBm, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			p := DefaultParams()
			m, err := NewMedium(eng, topology.Line(2, 5), nil, p, seed)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Radio(0)
			r.SetOn(true)
			src := &countingNoise{src: constNoise(c.floor)}
			if c.floor == 0 {
				src.src = model.NewSource(sim.DeriveRNG(seed, 1))
			}
			r.noise = src
			var twinWifi *noise.WifiInterferer
			if c.wifi {
				// -85 dBm bursts sit 5 dB over the threshold.
				m.SetInterferer(noise.NewWifiInterferer(sim.DeriveRNG(seed, 0xbeef), -85))
				twinWifi = noise.NewWifiInterferer(sim.DeriveRNG(seed, 0xbeef), -85)
			}
			rng := rand.New(rand.NewPCG(seed, 2))
			thr := ccaThresholdDBm
			// ulps moves x by up to four ulps either way.
			ulps := func(x float64) float64 {
				steps, dir := rng.IntN(9)-4, math.Inf(1)
				if steps < 0 {
					steps, dir = -steps, math.Inf(-1)
				}
				for ; steps > 0; steps-- {
					x = math.Nextafter(x, dir)
				}
				return x
			}
			margin := []float64{-ccaMarginDB, 0, ccaMarginDB}
			var busy, idle, folded int
			var next func()
			next = func() {
				r.air = r.air[:0]
				n := rng.IntN(71)
				count := 1 + n
				if twinWifi != nil {
					count++
				}
				// Each set draws its own ceiling, so quiet sets come as
				// often as loud ones.
				ceiling := thr - 15 + 30*rng.Float64()
				for i := 0; i < n; i++ {
					r.air = append(r.air, airEntry{txID: uint32(i), rxDBm: thr - 15 + (ceiling-thr+15)*rng.Float64(), mW: -1})
				}
				if n > 0 {
					top := &r.air[rng.IntN(n)].rxDBm
					switch rng.IntN(4) {
					case 0: // n equal terms whose sum is near the threshold
						x := thr - 10*math.Log10(float64(n+1)) + (2*rng.Float64()-1)*1e-5
						for i := range r.air {
							r.air[i].rxDBm = x
						}
					case 1: // one term on the busy bound, the rest often far below
						if rng.IntN(2) == 0 {
							for i := range r.air {
								r.air[i].rxDBm -= 80
							}
						}
						*top = ulps(thr + margin[rng.IntN(3)])
					case 2: // the largest term on the idle bound
						x := ulps(thr - 10*math.Log10(float64(count)) + margin[rng.IntN(3)])
						for i := range r.air {
							r.air[i].rxDBm = min(r.air[i].rxDBm, x)
						}
						*top = x
					default: // every term, a constant floor too, on the idle bound
						if c.floor == 0 || c.wifi {
							break
						}
						x := ulps(thr - 10*math.Log10(float64(count)) + margin[rng.IntN(3)])
						for i := range r.air {
							r.air[i].rxDBm = x
						}
						src.src = constNoise(x)
					}
				}
				reads := src.reads
				got := r.CCABusy()
				if src.reads != reads+1 {
					t.Fatalf("CCA sample read the noise %d times", src.reads-reads)
				}
				if c.floor != 0 {
					src.src = constNoise(c.floor)
				}
				fold, top := dbmToMW(src.last), src.last
				if twinWifi != nil {
					w := twinWifi.InterferenceAt(eng.Now())
					fold += dbmToMW(w)
					top = max(top, w)
				}
				for i := range r.air {
					fold += dbmToMW(r.air[i].rxDBm)
					top = max(top, r.air[i].rxDBm)
				}
				// Coverage only: samples neither dB bound can settle.
				if top <= thr+ccaMarginDB && top+10*math.Log10(float64(count)) >= thr-ccaMarginDB {
					folded++
				}
				if want := m.ccaGate.above(fold); got != want {
					t.Fatalf("t=%v noise %v dBm, %d entries: CCABusy %v, fold %v dBm says %v",
						eng.Now(), src.last, len(r.air), got, mwToDBm(fold), want)
				}
				if got {
					busy++
				} else {
					idle++
				}
				if busy+idle < samples {
					eng.Schedule(time.Duration(rng.IntN(3000))*time.Microsecond, next)
				}
			}
			eng.Schedule(0, next)
			if err := eng.Run(time.Hour); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d busy, %d idle, %d past both dB bounds", busy, idle, folded)
			if busy < 1000 || idle < 1000 || folded < 1000 {
				t.Fatalf("samples too narrow: %d busy, %d idle, %d past both dB bounds", busy, idle, folded)
			}
		})
	}
}

// fastErr is the relative error TestFastDecideMatchesRxDecide puts on
// the powers it hands fastDecide: four times the worst a fast fold of
// fastMaxTerms powers carries (see fastSlack), still far inside the slack.
const fastErr = 1e-12

// TestFastDecideMatchesRxDecide pins the decision on fast powers to
// rxDecide on exact ones: whenever fastDecide settles, it must return
// rxDecide's decision. It runs 10⁷ seeded (u, signal, interference,
// noise, frame length) cases — powers drawn in dBm over the receive
// path's range, converted exactly and by fastMW or moved by up to
// fastErr — and forced margins: SINRs a few ulps either side of the
// saturation bound 4.0 and of PRR table cell edges j·h, capture ratios
// inside and at the edges of the capture gate's band, draws at the
// exact PRR and its float neighbours, and powers outside the range
// fastSettles admits. Nearly all random cases must settle, and none whose
// SINR or capture ratio lies within the slack of a cell edge, the
// saturation bound or an edge of the gate's band.
func TestFastDecideMatchesRxDecide(t *testing.T) {
	p := DefaultParams()
	capture := newDBGate(captureThresholdDB)
	capLin := dbmToMW(captureThresholdDB)
	rng := rand.New(rand.NewPCG(22, 1))
	perturb := func(x float64) float64 { return x * (1 + (2*rng.Float64()-1)*fastErr) }
	ulps := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; k < 0; k++ {
			x = math.Nextafter(x, 0)
		}
		return x
	}
	var settled, open int
	// check compares the two decisions for exact powers (s, i, n) and
	// their fast counterparts (fs, fi, fn) at each draw in us.
	check := func(us []float64, s, i, n, fs, fi, fn float64, size int) {
		for _, u := range us {
			want := p.rxDecide(capture, u, s, i, n, size)
			got, ok := p.fastDecide(capture, u, fs, fi, fn, size)
			if !ok {
				open++
				continue
			}
			settled++
			if got != want {
				t.Fatalf("u=%v signal=%v interf=%v noise=%v (fast %v %v %v) size=%d: fast %v, exact %v",
					u, s, i, n, fs, fi, fn, size, got, want)
			}
		}
	}
	// atPRR returns the draws on the margin of the exact decision.
	atPRR := func(s, i, n float64, size int) []float64 {
		prr := prrFromSNR(s/(n+i), size+phyOverheadBytes)
		return []float64{rng.Float64(), prr, math.Nextafter(prr, 0), math.Nextafter(prr, 1)}
	}

	for k := 0; k < 10_000_000; k++ {
		sDBm, nDBm := -100+60*rng.Float64(), -105+25*rng.Float64()
		s, n := dbmToMW(sDBm), dbmToMW(nDBm)
		fs, fn := fastMW(sDBm), fastMW(nDBm)
		var i, fi float64
		switch rng.IntN(4) {
		case 0: // interference-free
		case 1: // a fold of exact powers, fast ones off by up to fastErr
			i = dbmToMW(-110 + 60*rng.Float64())
			fi = perturb(i)
		default:
			iDBm := -110 + 60*rng.Float64()
			i, fi = dbmToMW(iDBm), fastMW(iDBm)
		}
		check([]float64{rng.Float64()}, s, i, n, fs, fi, fn, rng.IntN(maxTestFrameBytes+1))
	}
	if settled < 9_900_000 {
		t.Fatalf("fast decision settled %d of 10^7 random cases, want at least 99%%", settled)
	}
	random := settled

	// Forced margins: an exact SINR placed on a boundary, the fast powers
	// perturbed around it.
	for k := 0; k < 200_000; k++ {
		n := dbmToMW(-105 + 25*rng.Float64())
		var i float64
		if rng.IntN(2) == 0 {
			i = n * 4 * rng.Float64()
		}
		var target float64
		switch rng.IntN(3) {
		case 0:
			target = prrSaturatedSNR
		case 1:
			target = float64(1+rng.IntN(prrLogSteps-1)) * prrLogStep
		default:
			target = prrSaturatedSNR * rng.Float64()
		}
		s := ulps(target*(n+i), rng.IntN(9)-4)
		if i > 0 && mwToDBm(s/i) < captureThresholdDB+1e-3 {
			i = s / capLin / 2 // keep the capture gate clear of this case
		}
		size := rng.IntN(maxTestFrameBytes + 1)
		check(atPRR(s, i, n, size), s, i, n, perturb(s), perturb(i), perturb(n), size)
	}
	// The capture gate's band: ratios within a few band widths of the
	// threshold, on its edges and a slack either side of them.
	for k := 0; k < 200_000; k++ {
		s, n := dbmToMW(-90+40*rng.Float64()), dbmToMW(-105+25*rng.Float64())
		var ratio float64
		switch rng.IntN(3) {
		case 0:
			ratio = capLin * (1 + (2*rng.Float64()-1)*3*gateBand)
		case 1:
			ratio = []float64{capture.lo, capture.hi}[rng.IntN(2)] * (1 + float64(rng.IntN(5)-2)*fastSlack)
		default:
			ratio = ulps([]float64{capture.lo, capture.hi, capLin}[rng.IntN(3)], rng.IntN(9)-4)
		}
		i := s / ratio
		size := rng.IntN(maxTestFrameBytes + 1)
		check(atPRR(s, i, n, size), s, i, n, perturb(s), perturb(i), perturb(n), size)
	}
	// Powers fastSettles does not admit never settle.
	for _, c := range [][3]float64{{0x1p-500, 0, 1e-10}, {1e-9, 0x1p-450, 1e-10}, {0x1p500, 0, 1e-10}, {1e-9, 0, 0}, {math.NaN(), 0, 1e-10}, {1e-9, math.Inf(1), 1e-10}} {
		if _, ok := p.fastDecide(capture, 0.5, c[0], c[1], c[2], 30); ok {
			t.Fatalf("fastDecide settled on signal %v interference %v noise %v", c[0], c[1], c[2])
		}
	}
	// Fast powers within the slack of a boundary leave the decision open:
	// an SINR next to a PRR cell edge or the saturation bound, a capture
	// ratio next to either edge of the gate's band.
	near := func(x float64) float64 { return x * (1 + (rng.Float64()-0.5)*fastSlack) }
	for k := 0; k < 10000; k++ {
		n, s := dbmToMW(-105+25*rng.Float64()), dbmToMW(-90+40*rng.Float64())
		edge := prrSaturatedSNR
		if k%2 == 0 {
			edge = float64(1+rng.IntN(prrLogSteps-1)) * prrLogStep
		}
		if _, ok := p.fastDecide(capture, rng.Float64(), near(edge)*n, 0, n, 30); ok {
			t.Fatalf("fastDecide settled an SINR within the slack of %v", edge)
		}
		ratio := []float64{capture.lo, capture.hi}[k%2]
		if _, ok := p.fastDecide(capture, rng.Float64(), s, s/near(ratio), n, 30); ok {
			t.Fatalf("fastDecide settled a capture ratio within the slack of %v", ratio)
		}
	}
	t.Logf("%d random cases settled; margins: %d settled, %d left to the exact powers", random, settled-random, open)
	if open == 0 {
		t.Fatal("no case reached the exact powers; the margins are not exercised")
	}
}
