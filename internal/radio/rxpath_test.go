package radio

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// maxTestFrameBytes bounds the MAC frame sizes the PRR properties sweep:
// the 802.15.4 PSDU limit is 127 bytes, and the sweep covers twice that.
const maxTestFrameBytes = 254

// saturatedSNRs returns a dense log-spaced grid over [prrSaturatedSNR,
// 1e6] plus uniformly random draws from the same interval.
func saturatedSNRs() []float64 {
	var snrs []float64
	const steps = 2000
	lo, hi := math.Log(prrSaturatedSNR), math.Log(1e6)
	for i := 0; i <= steps; i++ {
		snrs = append(snrs, math.Exp(lo+(hi-lo)*float64(i)/steps))
	}
	snrs = append(snrs, prrSaturatedSNR, math.Nextafter(prrSaturatedSNR, math.Inf(1)))
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 2000; i++ {
		snrs = append(snrs, prrSaturatedSNR+rng.Float64()*(1e6-prrSaturatedSNR))
	}
	return snrs
}

// TestPRRSaturatedCurveIsExactlyOne pins the saturation shortcut: at and
// above prrSaturatedSNR the full analytic curve already evaluates to
// exactly 1 for every frame size the stack can send, so returning 1
// without the sum changes no value.
func TestPRRSaturatedCurveIsExactlyOne(t *testing.T) {
	overhead := DefaultParams().PhyOverheadBytes
	for _, snr := range saturatedSNRs() {
		if snr < prrSaturatedSNR {
			continue
		}
		for size := 0; size <= maxTestFrameBytes; size++ {
			n := size + overhead
			if got := prrCurve(snr, n); got != 1 {
				t.Fatalf("prrCurve(%v, %d) = %v (%x), want exactly 1", snr, n, got, math.Float64bits(got))
			}
			if got := prrFromSNR(snr, n); got != 1 {
				t.Fatalf("prrFromSNR(%v, %d) = %v, want exactly 1", snr, n, got)
			}
		}
	}
	// Below saturation the shortcut must not engage.
	for snr := 0.0; snr < prrSaturatedSNR; snr += 0.01 {
		if a, b := prrFromSNR(snr, 36), prrCurve(snr, 36); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("prrFromSNR(%v) = %v, curve %v", snr, a, b)
		}
	}
}

// curveFirstPRR is the reference adjudication order: evaluate the full
// PRR curve, then zero it when the capture gate fails.
func curveFirstPRR(p Params, signalMW, maxInterfMW, noiseMW float64, frameBytes int) (prr, snr float64) {
	snr = signalMW / (noiseMW + maxInterfMW)
	prr = prrCurve(snr, frameBytes+p.PhyOverheadBytes)
	if maxInterfMW > 0 {
		if mwToDBm(signalMW/maxInterfMW) < p.CaptureThresholdDB {
			prr = 0
		}
	}
	return prr, snr
}

// TestCaptureFirstMatchesCurveFirst checks the capture-first adjudication
// against the curve-first oracle over random signal/interference/noise
// triples: the PRR and SINR must agree bit for bit, including triples
// straddling the capture threshold and the saturation point.
func TestCaptureFirstMatchesCurveFirst(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewPCG(3, 4))
	gated, saturated := 0, 0
	for i := 0; i < 200000; i++ {
		signal := dbmToMW(-100 + 60*rng.Float64())
		noise := dbmToMW(-105 + 25*rng.Float64())
		var interf float64
		switch rng.IntN(4) {
		case 0: // interference-free
		case 1: // right at the capture threshold
			interf = signal / dbmToMW(p.CaptureThresholdDB+(rng.Float64()-0.5)*1e-9)
		default:
			interf = dbmToMW(-110 + 60*rng.Float64())
		}
		size := rng.IntN(maxTestFrameBytes + 1)
		gotPRR, gotSNR := p.rxPRR(signal, interf, noise, size)
		wantPRR, wantSNR := curveFirstPRR(p, signal, interf, noise, size)
		if math.Float64bits(gotPRR) != math.Float64bits(wantPRR) || math.Float64bits(gotSNR) != math.Float64bits(wantSNR) {
			t.Fatalf("signal=%g interf=%g noise=%g size=%d: got (%v, %v), oracle (%v, %v)",
				signal, interf, noise, size, gotPRR, gotSNR, wantPRR, wantSNR)
		}
		if interf > 0 && gotPRR == 0 && mwToDBm(signal/interf) < p.CaptureThresholdDB {
			gated++
		}
		if gotSNR >= prrSaturatedSNR {
			saturated++
		}
	}
	if gated < 1000 || saturated < 1000 {
		t.Fatalf("sweep too narrow: %d gated, %d saturated triples", gated, saturated)
	}
}

// TestAdjudicationDrawsOncePerReception checks that every adjudicated
// reception consumes exactly one value of the receiver's RNG stream —
// frames the capture gate rejects and saturated frames included — so the
// adjudication shortcuts cannot shift any later draw.
func TestAdjudicationDrawsOncePerReception(t *testing.T) {
	const seed = 5
	eng := sim.NewEngine()
	m, err := NewMedium(eng, benchDeployment(6, seed), nil, benchParams(GainPerLink), seed)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		m.Radio(NodeID(i)).SetOn(true)
	}
	f := &Frame{Kind: FrameData, Dst: BroadcastID, Size: 30}
	for step := 0; step < 200; step++ {
		// Three overlapping broadcasts per step: collisions exercise the
		// capture gate, near neighbours the saturated curve.
		for k := 0; k < 3; k++ {
			src := NodeID((step*5 + k*11) % n)
			if err := m.Radio(src).Transmit(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var delivered, corrupted uint64
	for i := 0; i < n; i++ {
		r := m.Radio(NodeID(i))
		c := r.Counters()
		delivered += c.RxDelivered
		corrupted += c.RxCorrupted
		ref := sim.DeriveRNG(seed, 0x10000+uint64(i))
		for d := uint64(0); d < c.RxDelivered+c.RxCorrupted; d++ {
			ref.Float64()
		}
		if got, want := r.rng.Float64(), ref.Float64(); got != want {
			t.Fatalf("radio %d: RNG stream is not at draw %d after %d receptions", i, c.RxDelivered+c.RxCorrupted, c.RxDelivered+c.RxCorrupted)
		}
	}
	if delivered == 0 || corrupted == 0 {
		t.Fatalf("scenario exercised %d deliveries, %d corruptions; want both", delivered, corrupted)
	}
}

// airSums builds a fresh 4-node line from seed, puts three overlapping
// transmissions on the air at node 1 — one strong frame and two whose
// received power is ~0.3 ulp of the channel total, so the floating-point
// sum depends on the order it is taken in — and samples the air sums
// mid-frame, calls times over. It returns the sampled bits and the three
// received powers in arrival order.
func airSums(t *testing.T, seed uint64, calls int) (interf, channel []uint64, busy []bool, powers []float64) {
	t.Helper()
	eng := sim.NewEngine()
	params := DefaultParams()
	params.ShadowSigmaDB = 0
	params.TxJitterSigmaDB = 0
	m, err := NewMedium(eng, topology.Line(4, 5), nil, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	rx := m.Radio(1)
	rx.SetOn(true)
	strong := 0 + m.GainDB(0, 1)
	total := dbmToMW(strong) + dbmToMW(quietFloorDBm)
	ulp := math.Nextafter(total, math.Inf(1)) - total
	weak := mwToDBm(0.3 * ulp)
	sends := []struct {
		src   NodeID
		power float64
	}{{0, 0}, {2, weak - m.GainDB(2, 1)}, {3, weak - m.GainDB(3, 1)}}
	f := &Frame{Kind: FrameData, Dst: BroadcastID, Size: 40}
	for _, s := range sends {
		r := m.Radio(s.src)
		r.SetOn(true)
		if err := r.Transmit(f, s.power); err != nil {
			t.Fatal(err)
		}
	}
	eng.Schedule(params.Airtime(f.Size)/2, func() {
		if len(rx.air) != 3 {
			t.Fatalf("receiver hears %d frames, want 3", len(rx.air))
		}
		for i := range rx.air {
			powers = append(powers, rx.air[i].powerMW())
		}
		for i := 0; i < calls; i++ {
			// Transmission ids start at 1, so excluding 0 sums all three.
			interf = append(interf, math.Float64bits(rx.interferenceMW(0)))
			channel = append(channel, math.Float64bits(rx.channelMW()))
			busy = append(busy, rx.CCABusy())
		}
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	return interf, channel, busy, powers
}

// TestAirSumsDeterministic is the determinism regression test for the
// air-set sums behind SINR and CCA: with several overlapping frames whose
// floating-point sum depends on order, they must sum in arrival order, so
// repeated calls and fresh builds from the same seed agree bit for bit.
func TestAirSumsDeterministic(t *testing.T) {
	const calls = 64
	interf, channel, busy, powers := airSums(t, 9, calls)
	noise := dbmToMW(quietFloorDBm)

	// The test's premise: the three powers sum differently in different
	// orders, so an unordered iteration would show.
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var sums, channels []float64
	for _, o := range orders {
		var s float64
		c := noise
		for _, k := range o {
			s += powers[k]
			c += powers[k]
		}
		sums = append(sums, s)
		channels = append(channels, c)
	}
	if slices.Min(sums) == slices.Max(sums) || slices.Min(channels) == slices.Max(channels) {
		t.Fatalf("powers %v are order-insensitive; the test cannot see unordered sums", powers)
	}

	wantInterf := math.Float64bits(sums[0])
	wantChannel := math.Float64bits(channels[0])
	wantBusy := mwToDBm(channels[0]) > DefaultParams().CCAThresholdDBm
	for i := 0; i < calls; i++ {
		if interf[i] != wantInterf || channel[i] != wantChannel || busy[i] != wantBusy {
			t.Fatalf("call %d: interference %x channel %x busy %v, want arrival-order %x %x %v",
				i, interf[i], channel[i], busy[i], wantInterf, wantChannel, wantBusy)
		}
	}
	interf2, channel2, busy2, _ := airSums(t, 9, calls)
	if !slices.Equal(interf, interf2) || !slices.Equal(channel, channel2) || !slices.Equal(busy, busy2) {
		t.Fatal("a fresh build from the same seed sums the air set differently")
	}
}
