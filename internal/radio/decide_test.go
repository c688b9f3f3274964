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

// checkReceived fails the test unless received(u, snr, frameBytes) is u <
// prrFromSNR(snr, frameBytes).
func checkReceived(t testing.TB, u, snr float64, frameBytes int) {
	t.Helper()
	if got, want := received(u, snr, frameBytes), u < prrFromSNR(snr, frameBytes); got != want {
		t.Fatalf("received(%v, %v, %d) = %v, want u < %v = %v",
			u, snr, frameBytes, got, prrFromSNR(snr, frameBytes), want)
	}
}

// checkReceivedAtPRR checks the draws that sit on the decision's margin
// for one SNR and frame length: 0, the PRR itself and its float
// neighbours, and one uniform draw.
func checkReceivedAtPRR(t testing.TB, rng *rand.Rand, snr float64, frameBytes int) {
	t.Helper()
	prr := prrFromSNR(snr, frameBytes)
	for _, u := range []float64{0, prr, math.Nextafter(prr, 0), math.Nextafter(prr, 1), rng.Float64()} {
		checkReceived(t, u, snr, frameBytes)
	}
}

// TestReceivedMatchesCurve pins the draw-first decision to the curve: on
// 10^7 seeded (u, SNR, frame length) triples over SNR in (0, 4.5) and
// every frame length the stack sends, and on the margins — u at 0 and at
// the exact PRR with its neighbours, SNRs on every 64th table grid point
// with their neighbours, at the saturation bound and one ulp below it,
// and SNRs of 0, below 0, NaN and ±Inf — received must equal u <
// prrFromSNR bit for bit.
func TestReceivedMatchesCurve(t *testing.T) {
	overhead := DefaultParams().PhyOverheadBytes
	rng := rand.New(rand.NewPCG(20, 1))
	for i := 0; i < 10_000_000; i++ {
		snr := 4.5 * rng.Float64()
		frameBytes := rng.IntN(maxTestFrameBytes+1) + overhead
		checkReceived(t, rng.Float64(), snr, frameBytes)
	}
	for i := 0; i < 200_000; i++ {
		checkReceivedAtPRR(t, rng, prrSaturatedSNR*rng.Float64(), rng.IntN(maxTestFrameBytes+1)+overhead)
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
			checkReceivedAtPRR(t, rng, snr, size+overhead)
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
		checkReceived(t, math.Float64frombits(uBits), math.Float64frombits(snrBits),
			int(size)+DefaultParams().PhyOverheadBytes)
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
			thr := p.CCAThresholdDBm
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
					r.air = append(r.air, airEntry{txID: uint64(i), rxDBm: thr - 15 + (ceiling-thr+15)*rng.Float64(), mW: -1})
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
