package radio

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"teleadjust/internal/noise"
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
	overhead := phyOverheadBytes
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
func curveFirstPRR(p Params, signalMW, maxInterfMW, noiseMW float64, frameBytes int) float64 {
	prr := prrCurve(signalMW/(noiseMW+maxInterfMW), frameBytes+phyOverheadBytes)
	if maxInterfMW > 0 {
		if mwToDBm(signalMW/maxInterfMW) < captureThresholdDB {
			prr = 0
		}
	}
	return prr
}

// checkDecision compares rxDecide with the curve-first oracle on one
// triple: the decision must be u < PRR for several draws — uniform ones,
// and the oracle's PRR itself with its float neighbours, where the
// decision sits at its margin. It returns the oracle's PRR.
func checkDecision(t *testing.T, rng *rand.Rand, p Params, capture dbGate, signal, interf, noise float64, size int) float64 {
	t.Helper()
	wantPRR := curveFirstPRR(p, signal, interf, noise, size)
	us := []float64{rng.Float64(), rng.Float64(), rng.Float64(),
		wantPRR, math.Nextafter(wantPRR, 0), math.Nextafter(wantPRR, 1)}
	for _, u := range us {
		if ok := p.rxDecide(capture, u, signal, interf, noise, size); ok != (u < wantPRR) {
			t.Fatalf("signal=%g interf=%g noise=%g size=%d u=%v: got %v, oracle PRR %v",
				signal, interf, noise, size, u, ok, wantPRR)
		}
	}
	return wantPRR
}

// replayed is the exact worst interference r's reception log replays.
func replayed(r *Radio) float64 {
	_, worst := r.rx.log.worst(nil)
	return worst
}

// TestCaptureFirstMatchesCurveFirst checks the capture-first decision
// against the curve-first oracle over random signal/interference/noise
// triples: every draw must be decided as u < PRR, including triples
// straddling the capture threshold and the saturation point.
func TestCaptureFirstMatchesCurveFirst(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewPCG(3, 4))
	// The draws come from their own stream, so the triples and air sets
	// are the ones the PRR-valued form of this test swept.
	draws := rand.New(rand.NewPCG(7, 8))
	gated, saturated := 0, 0
	for i := 0; i < 200000; i++ {
		signal := dbmToMW(-100 + 60*rng.Float64())
		noise := dbmToMW(-105 + 25*rng.Float64())
		var interf float64
		switch rng.IntN(4) {
		case 0: // interference-free
		case 1: // right at the capture threshold
			interf = signal / dbmToMW(captureThresholdDB+(rng.Float64()-0.5)*1e-9)
		default:
			interf = dbmToMW(-110 + 60*rng.Float64())
		}
		size := rng.IntN(maxTestFrameBytes + 1)
		wantPRR := checkDecision(t, draws, p, newDBGate(captureThresholdDB), signal, interf, noise, size)
		if interf > 0 && wantPRR == 0 && mwToDBm(signal/interf) < captureThresholdDB {
			gated++
		}
		if signal/(noise+interf) >= prrSaturatedSNR {
			saturated++
		}
	}
	if gated < 1000 || saturated < 1000 {
		t.Fatalf("sweep too narrow: %d gated, %d saturated triples", gated, saturated)
	}

	// The receive path's early decisions and its exact replay. A bare
	// radio locks onto a signal over a random air set and then sees
	// arrivals and departures; the reference folds the air set afresh in
	// exact powers at every arrival. Whenever the radio has settled the
	// frame as lost — an interferer outshines it in dB, or a fast sum puts
	// it below the capture gate's band with fastSlack to spare — the oracle
	// on the reference's worst sum must return PRR 0. Otherwise the worst
	// sum replayed from the radio's reception log must reproduce the
	// reference's bit for bit, and the kept fast one must lie within
	// fastSlack of it. Either way the pair runs through the decision
	// comparison above.
	m, err := NewMedium(sim.NewEngine(), topology.Line(2, 5), nil, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Radio(0)
	capture := newDBGate(captureThresholdDB)
	var outshone, sunk, kept int
	for trial := 0; trial < 100000; trial++ {
		r.SetOn(false)
		r.SetOn(true)
		signal := -95 + 50*rng.Float64()
		interferer := func() float64 {
			offset := 0.0
			switch rng.IntN(4) {
			case 0: // at the outshone margin or the capture gate's band
				offset = (rng.Float64() - 0.5) * []float64{4e-6, 2e-8}[rng.IntN(2)]
			case 1:
				offset = -3 + 4*rng.Float64()
			case 2:
				offset = -15 + 12*rng.Float64()
			default:
				offset = -40 + 25*rng.Float64()
			}
			return signal - captureThresholdDB + offset
		}
		var ref []airEntry
		var id uint64
		lockID := uint64(1 + rng.IntN(3))
		for id+1 < lockID {
			id++
			ref = append(ref, airEntry{txID: uint32(id), rxDBm: interferer()})
			r.air = append(r.air, airEntry{txID: uint32(id), rxDBm: ref[len(ref)-1].rxDBm, mW: -1})
		}
		id++
		ref = append(ref, airEntry{txID: uint32(id), rxDBm: signal})
		r.onAirStart(&transmission{id: id}, signal)
		interference := func() float64 {
			var sum float64
			for _, e := range ref {
				if e.txID != uint32(lockID) {
					sum += dbmToMW(e.rxDBm)
				}
			}
			return sum
		}
		refMax, anyOutshone := interference(), false
		for ops := rng.IntN(7); ops > 0; ops-- {
			if k := rng.IntN(len(ref)); rng.IntN(10) < 3 && ref[k].txID != uint32(lockID) {
				r.removeAir(ref[k].txID)
				ref = append(ref[:k], ref[k+1:]...)
				continue
			}
			id++
			dbm := interferer()
			ref = append(ref, airEntry{txID: uint32(id), rxDBm: dbm})
			r.onAirStart(&transmission{id: id}, dbm)
			refMax = max(refMax, interference())
		}
		for _, e := range ref {
			anyOutshone = anyOutshone || (e.txID != uint32(lockID) && signal-captureThresholdDB+outshoneMarginDB < e.rxDBm)
		}
		if r.rx.tx == nil || r.rx.tx.id != lockID {
			t.Fatalf("trial %d: radio did not lock onto frame %d", trial, lockID)
		}
		signalMW := dbmToMW(signal)
		noise := dbmToMW(-105 + 25*rng.Float64())
		size := rng.IntN(maxTestFrameBytes + 1)
		wantPRR := checkDecision(t, draws, p, capture, signalMW, refMax, noise, size)
		switch {
		case r.rx.lost:
			if wantPRR != 0 {
				t.Fatalf("trial %d: reception settled as lost, oracle PRR %v (signal %v dBm, air %v)", trial, wantPRR, signal, ref)
			}
			if anyOutshone {
				outshone++
			} else {
				sunk++
			}
		case (r.rx.log == nil) != (refMax == 0):
			t.Fatalf("trial %d: reception log %v, worst exact interference %v", trial, r.rx.log, refMax)
		case math.Float64bits(replayed(r)) != math.Float64bits(refMax):
			t.Fatalf("trial %d: replayed worst interference %v, fresh folds %v", trial, replayed(r), refMax)
		case math.Abs(r.rx.maxInterfMW-refMax) > refMax*fastSlack:
			t.Fatalf("trial %d: kept fast worst interference %v, fresh exact folds %v", trial, r.rx.maxInterfMW, refMax)
		default:
			kept++
		}
		if anyOutshone && !r.rx.lost {
			t.Fatalf("trial %d: an outshining interferer did not settle the reception", trial)
		}
	}
	t.Logf("%d outshone, %d lost on a sum, %d kept", outshone, sunk, kept)
	if outshone < 1000 || sunk < 1000 || kept < 1000 {
		t.Fatalf("air sets too narrow: %d outshone, %d lost on a sum, %d kept to the end", outshone, sunk, kept)
	}
}

// TestDBGateMatchesLog pins the gates' linear band, which lets fast
// values skip the logarithm: for the CCA and capture thresholds, wherever
// aboveNear settles a value, comparing mwToDBm against the threshold must
// agree for the value and for its neighbours fastSlack either side. It
// runs 10^7 seeded values within ±1e-6 dB of the thresholds, the 64 float
// neighbours either side of each threshold in mW and of each band edge,
// values inside the band, and the non-positive and non-finite inputs; most
// of the first must settle, and none inside the band.
func TestDBGateMatchesLog(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, thr := range []float64{ccaThresholdDBm, captureThresholdDB} {
		g := newDBGate(thr)
		check := func(x float64) bool {
			above, ok := g.aboveNear(x)
			if !ok {
				return false
			}
			for _, y := range []float64{x * (1 - fastSlack), x, x * (1 + fastSlack)} {
				if db := mwToDBm(y); (db > thr) != above {
					t.Fatalf("threshold %v dB, x=%v: aboveNear settled %v, but %v is %v dB", thr, x, above, y, db)
				}
			}
			return true
		}
		settled := 0
		for i := 0; i < 5_000_000; i++ {
			if check(dbmToMW(thr + (2*rng.Float64()-1)*1e-6)) {
				settled++
			}
		}
		if settled < 4_900_000 {
			t.Fatalf("threshold %v dB: aboveNear settled %d of 5e6 values within 1e-6 dB, want at least 98%%", thr, settled)
		}
		lin := dbmToMW(thr)
		for _, c := range []float64{lin, g.lo, g.hi} {
			up, down := c, c
			for k := 0; k < 64; k++ {
				check(up)
				check(down)
				up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			}
		}
		for i := 0; i < 100000; i++ {
			if check(lin * (1 + (2*rng.Float64()-1)*gateBand)) {
				t.Fatalf("threshold %v dB: aboveNear settled a value inside the band", thr)
			}
		}
		for _, x := range []float64{0, math.Copysign(0, -1), -lin, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
			check(x)
		}
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
// received power is ~0.45 ulp of the channel total, so the floating-point
// sum depends on the order it is taken in (one alone rounds away, two
// together round up unless the total itself was rounded up by more than
// 0.4 ulp) — and samples the air sums
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
	total := fastMW(strong) + fastMW(quietFloorDBm)
	ulp := math.Nextafter(total, math.Inf(1)) - total
	weak := mwToDBm(0.45 * ulp)
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
			dbm, wifiOn := m.readNoise(rx, eng.Now())
			channel = append(channel, math.Float64bits(rx.channelMW(m.noiseMW(rx, dbm, wifiOn))))
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
	noise := fastMW(quietFloorDBm)

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
	wantBusy := mwToDBm(channels[0]) > ccaThresholdDBm
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

// TestNoiseAtMemoMatchesConversion pins the noise-floor memo: on every
// read, noiseMW must equal converting the twin sources' dBm values
// afresh with fastMW, and exactNoiseMW with dbmToMW, bit for bit — with a
// CPM source per radio, with no model (the constant quiet floor) and with
// a WiFi interferer on top. Reads jump
// between radios and include repeated times, sub-sample steps and gaps
// past the CPM reseed threshold.
func TestNoiseAtMemoMatchesConversion(t *testing.T) {
	const seed, nodes = 7, 4
	model := noise.Train(noise.GenerateTrace(20000, 3))
	cases := []struct {
		name  string
		model *noise.Model
		wifi  bool
	}{
		{"cpm", model, false},
		{"quiet-floor", nil, false},
		{"cpm+wifi", model, true},
		{"quiet-floor+wifi", nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMedium(sim.NewEngine(), topology.Line(nodes, 5), c.model, DefaultParams(), seed)
			if err != nil {
				t.Fatal(err)
			}
			var twins []*noise.Source
			if c.model != nil {
				for i := 0; i < nodes; i++ {
					twins = append(twins, c.model.NewSource(sim.DeriveRNG(seed, uint64(i)+1)))
				}
			}
			var twinWifi *noise.WifiInterferer
			if c.wifi {
				m.SetInterferer(noise.NewWifiInterferer(sim.DeriveRNG(seed, 0xbeef), -58))
				twinWifi = noise.NewWifiInterferer(sim.DeriveRNG(seed, 0xbeef), -58)
			}
			rng := rand.New(rand.NewPCG(seed, 1))
			var now time.Duration
			for i := 0; i < 20000; i++ {
				switch rng.IntN(10) {
				case 0: // same instant again
				case 1:
					now += time.Duration(65+rng.IntN(100)) * time.Millisecond
				default:
					now += time.Duration(rng.IntN(1500)) * time.Microsecond
				}
				id := rng.IntN(nodes)
				dbm := quietFloorDBm
				if twins != nil {
					dbm = twins[id].ReadAt(now)
				}
				want, wantExact := fastMW(dbm), dbmToMW(dbm)
				if twinWifi != nil {
					w := twinWifi.InterferenceAt(now)
					want += fastMW(w)
					wantExact += dbmToMW(w)
				}
				r := m.Radio(NodeID(id))
				gotDBm, wifiOn := m.readNoise(r, now)
				got, gotExact := m.noiseMW(r, gotDBm, wifiOn), m.exactNoiseMW(gotDBm, wifiOn)
				if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotExact) != math.Float64bits(wantExact) {
					t.Fatalf("read %d (node %d, t=%v): noiseMW %v exact %v, fresh conversions %v and %v", i, id, now, got, gotExact, want, wantExact)
				}
			}
		})
	}
}

// tracedLine is a 5-node line, 4 m apart, without shadowing or jitter,
// every radio on, with a trace hook that keeps node 1's receive events.
type tracedLine struct {
	t   *testing.T
	eng *sim.Engine
	m   *Medium
	got []TraceEvent
}

func newTracedLine(t *testing.T) *tracedLine {
	t.Helper()
	params := DefaultParams()
	params.ShadowSigmaDB = 0
	params.TxJitterSigmaDB = 0
	l := &tracedLine{t: t, eng: sim.NewEngine()}
	m, err := NewMedium(l.eng, topology.Line(5, 4), nil, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	l.m = m
	m.SetTraceFn(func(e TraceEvent) {
		if e.Node == 1 && e.Kind != TraceTxStart {
			l.got = append(l.got, e)
		}
	})
	for i := 0; i < 5; i++ {
		m.Radio(NodeID(i)).SetOn(true)
	}
	return l
}

// lineSend is one frame of a tracedLine schedule: src puts size bytes on
// the air at time at, sent at power dBm.
type lineSend struct {
	src   NodeID
	power float64
	at    time.Duration
	size  int
}

// run plays sends and returns the power each is received at by node 1, in
// dbmToMW milliwatts.
func (l *tracedLine) run(sends []lineSend) (rx []float64) {
	l.t.Helper()
	for _, s := range sends {
		s := s
		l.eng.Schedule(s.at, func() {
			if err := l.m.Radio(s.src).Transmit(&Frame{Kind: FrameData, Src: s.src, Dst: BroadcastID, Size: s.size}, s.power); err != nil {
				l.t.Fatal(err)
			}
		})
		rx = append(rx, dbmToMW(s.power+l.m.GainDB(s.src, 1)))
	}
	if err := l.eng.Run(time.Second); err != nil {
		l.t.Fatal(err)
	}
	return rx
}

// checkSINR fails the test unless node 1 reported one reception, of
// node 0's frame, with an SINR within fastSlack relative of want, and
// returns that SINR in dB.
func (l *tracedLine) checkSINR(want float64) float64 {
	l.t.Helper()
	if len(l.got) != 1 || l.got[0].Frame.Src != 0 {
		l.t.Fatalf("node 1 reported %d receptions, want the one of node 0's frame", len(l.got))
	}
	got := l.got[0].SINRdB
	if math.Abs(dbmToMW(got)/want-1) > fastSlack {
		l.t.Fatalf("traced SINR %v dB, exact %v dB: further apart than fastSlack", got, mwToDBm(want))
	}
	return got
}

// TestTracedReceptionReportsSettledSINR checks the SINR traced receptions
// report from the fast powers they hold when settled. Node 1 of a 5-node
// line locks onto node 0's frame.
//
// Judged at its end: nodes 2, 3 and 4 put weaker frames on the air during
// the lock — 3 while 2 is still on the air, 4 after 2 has left — so the
// worst interference is the larger of the folds I₂+I₃ and I₃+I₄. The
// reported SINR must lie within fastSlack of the exact S/(N + worst).
//
// Lost early: a frame on the air above the outshone threshold at the lock,
// one arriving above it, and two arrivals each clear of it whose sum sinks
// the capture ratio below the gate's band. Each must be settled as lost
// before its end, and report S/(N + the interference that lost it) —
// within fastSlack of the exact ratio, and below captureThresholdDB.
func TestTracedReceptionReportsSettledSINR(t *testing.T) {
	l := newTracedLine(t)
	sends := []lineSend{
		{0, -1, 0, 100},
		{2, -14, 200 * time.Microsecond, 10},
		{3, -9, 500 * time.Microsecond, 30},
		{4, -3, 1000 * time.Microsecond, 10},
	}
	if end2 := sends[1].at + l.m.params.Airtime(sends[1].size); !(end2 > sends[2].at && end2 < sends[3].at) {
		t.Fatalf("frame 2 leaves the air at %v, want between the next two arrivals", end2)
	}
	rx := l.run(sends)
	noise := dbmToMW(quietFloorDBm)
	l.checkSINR(rx[0] / (noise + max(rx[1]+rx[2], rx[2]+rx[3])))

	// Each loss case schedules frames received at node 1 at the given
	// powers, node 0's the locked one; lost names the interference that
	// loses it, from the received powers in send order.
	capture := captureThresholdDB
	cases := []struct {
		name     string
		sends    []lineSend // power is the power received at node 1
		outshone bool
		lost     func(rx []float64) float64
	}{
		{"outshone-at-lock", []lineSend{{3, -96.5, 0, 100}, {0, -93, 200 * time.Microsecond, 30}}, true,
			func(rx []float64) float64 { return rx[0] }},
		{"outshone-on-arrival", []lineSend{{0, -80, 0, 100}, {2, -70, 500 * time.Microsecond, 10}}, true,
			func(rx []float64) float64 { return rx[1] }},
		{"capture-band", []lineSend{{0, -80, 0, 100}, {2, -85.5, 200 * time.Microsecond, 60}, {3, -85.5, 400 * time.Microsecond, 30}}, false,
			func(rx []float64) float64 { return rx[1] + rx[2] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := newTracedLine(t)
			var last time.Duration
			for i := range c.sends {
				c.sends[i].power -= l.m.GainDB(c.sends[i].src, 1)
				last = max(last, c.sends[i].at)
			}
			// Just after the last arrival, the reception must already be
			// settled as lost, in the way the case names.
			l.eng.Schedule(last+time.Microsecond, func() {
				r := l.m.Radio(1)
				if !r.rxActive || r.rx.tx.src != 0 || !r.rx.lost {
					t.Fatalf("node 1 has not settled node 0's frame as lost after the last arrival")
				}
				if outshone := r.rx.outshoneDBm > math.Inf(-1); outshone != c.outshone {
					t.Fatalf("reception lost to an outshining frame: %v, want %v", outshone, c.outshone)
				}
			})
			rx := l.run(c.sends)
			locked := 0
			for i, s := range c.sends {
				if s.src == 0 {
					locked = i
				}
			}
			if got := l.checkSINR(rx[locked] / (noise + c.lost(rx))); !(got < capture) || l.got[0].Kind != TraceRxCorrupt {
				t.Fatalf("lost reception reported as %v at %v dB, want %v below the capture threshold %v dB",
					l.got[0].Kind, got, TraceRxCorrupt, capture)
			}
		})
	}
}
