package radio

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"teleadjust/internal/noise"
	"teleadjust/internal/sim"
)

// shadowEntry is one frame on the air at a shadow receiver.
type shadowEntry struct {
	id  uint64
	dbm float64
}

// shadowRadio is one receiver of the always-notify reference model.
type shadowRadio struct {
	on, txing bool
	curTx     uint64 // id of the radio's own frame on the air, 0 for none
	// air records every frame that notifies the radio, awake or not.
	air []shadowEntry
	// lockID is the frame being received (0 for none), judged at its end
	// against the worst interference sum seen while it was on the air.
	lockID                uint64
	signalMW, maxInterfMW float64
	rng                   *rand.Rand
	noise                 *noise.Source
	counters              Counters
	delivered             []*Frame
	txDone                int
}

// interferenceMW folds the air set in arrival order without the locked
// frame, converting every power afresh.
func (s *shadowRadio) interferenceMW() float64 {
	var sum float64
	for _, e := range s.air {
		if e.id != s.lockID {
			sum += dbmToMW(e.dbm)
		}
	}
	return sum
}

// shadowMedium re-derives what the medium did before it notified only
// awake receivers: every notified receiver records every start and end,
// the jitter comes from a twin of the medium's stream, and receptions
// are judged curve first with the logarithmic capture gate
// (curveFirstPRR) on sums taken in full at every arrival. The medium
// under test is read only for its link table.
type shadowMedium struct {
	m      *Medium
	jitter *rand.Rand
	wifi   *noise.WifiInterferer
	radios []shadowRadio
}

func newShadowMedium(m *Medium, model *noise.Model, seed uint64, wifiDBm float64) *shadowMedium {
	s := &shadowMedium{
		m:      m,
		jitter: sim.DeriveRNG(seed, 0xf457),
		wifi:   noise.NewWifiInterferer(sim.DeriveRNG(seed, 0xbeef), wifiDBm),
		radios: make([]shadowRadio, m.NumNodes()),
	}
	for i := range s.radios {
		s.radios[i].rng = sim.DeriveRNG(seed, 0x10000+uint64(i))
		s.radios[i].noise = model.NewSource(sim.DeriveRNG(seed, uint64(i)+1))
	}
	return s
}

// noiseMW reads radio i's noise the way Medium.noiseAt does.
func (s *shadowMedium) noiseMW(i int, t time.Duration) float64 {
	total := dbmToMW(s.radios[i].noise.ReadAt(t))
	if s.wifi.On(t) {
		total += dbmToMW(s.wifi.PowerDBm)
	} else {
		total += dbmToMW(noise.WifiOffDBm)
	}
	return total
}

func (s *shadowMedium) setOn(i int, on bool) {
	sr := &s.radios[i]
	if !on && sr.txing {
		panic("shadow: SetOn(false) during transmission")
	}
	if !on {
		sr.lockID = 0
	}
	sr.on = on
}

func (s *shadowMedium) forceOff(i int) {
	sr := &s.radios[i]
	if !sr.on {
		return
	}
	sr.on, sr.txing, sr.curTx, sr.lockID = false, false, 0, 0
}

// start mirrors a Transmit of frame id by src at power, now.
func (s *shadowMedium) start(src int, id uint64, power float64, now time.Duration) {
	sr := &s.radios[src]
	sr.lockID, sr.txing, sr.curTx = 0, true, id
	sr.counters.TxData++
	sigma := s.m.params.TxJitterSigmaDB
	for _, dst := range s.m.neighborIDs(NodeID(src)) {
		dbm := power + s.m.gainAt(NodeID(src), dst, now)
		dbm += s.jitter.NormFloat64() * sigma
		r := &s.radios[dst]
		r.air = append(r.air, shadowEntry{id, dbm})
		switch {
		case r.on && !r.txing && r.lockID == 0:
			if dbm >= sensitivityDBm {
				r.lockID, r.signalMW = id, dbmToMW(dbm)
				r.maxInterfMW = r.interferenceMW()
			}
		case r.lockID != 0:
			if i := r.interferenceMW(); i > r.maxInterfMW {
				r.maxInterfMW = i
			}
		}
	}
}

// end mirrors frame id from src leaving the air at now.
func (s *shadowMedium) end(src int, id uint64, f *Frame, now time.Duration) {
	for _, dst := range s.m.neighborIDs(NodeID(src)) {
		r := &s.radios[dst]
		for k, e := range r.air {
			if e.id == id {
				r.air = append(r.air[:k], r.air[k+1:]...)
				break
			}
		}
		if r.lockID != id {
			continue
		}
		r.lockID = 0
		prr := curveFirstPRR(s.m.params, r.signalMW, r.maxInterfMW, s.noiseMW(int(dst), now), f.Size)
		if r.rng.Float64() < prr {
			r.counters.RxDelivered++
			r.delivered = append(r.delivered, f)
		} else {
			r.counters.RxCorrupted++
		}
	}
	if sr := &s.radios[src]; sr.curTx == id {
		sr.curTx, sr.txing = 0, false
		sr.txDone++
	}
}

// recordingHandler keeps every frame a radio delivers and counts its
// tx-done callbacks.
type recordingHandler struct {
	frames []*Frame
	txDone int
}

func (h *recordingHandler) OnFrame(f *Frame) { h.frames = append(h.frames, f) }
func (h *recordingHandler) OnTxDone()        { h.txDone++ }

// TestAwakeFanoutMatchesAlwaysNotify drives a small field through a
// seeded random schedule of wakes, sleeps, forced power-offs and
// transmissions, and after every event compares the medium, which
// notifies only awake radios and rebuilds air sets at wake, against the
// always-notify shadow: each awake radio's air set (ids, received powers,
// order), CCA, the radio counters, the delivered frames and the tx-done
// callbacks. The schedule includes forced power-offs followed by a
// retransmission while the first frame is still on the air. The field
// runs with jitter, CPM noise and a weak WiFi interferer, so receptions
// the early decisions settle must still read both noise processes; idle
// stretches in the schedule make a skipped read visible.
func TestAwakeFanoutMatchesAlwaysNotify(t *testing.T) {
	const seed, events, wifiDBm = 13, 20000, -96
	eng := sim.NewEngine()
	model := noise.Train(noise.GenerateTrace(20000, 3))
	m, err := NewMedium(eng, benchDeployment(4, seed), model, benchParams(GainPerLink), seed)
	if err != nil {
		t.Fatal(err)
	}
	if m.params.TxJitterSigmaDB <= 0 {
		t.Fatal("the field must run with jitter on")
	}
	m.SetInterferer(noise.NewWifiInterferer(sim.DeriveRNG(seed, 0xbeef), wifiDBm))
	s := newShadowMedium(m, model, seed, wifiDBm)
	n := m.NumNodes()
	handlers := make([]*recordingHandler, n)
	for i := range handlers {
		handlers[i] = &recordingHandler{}
		m.Radio(NodeID(i)).SetHandler(handlers[i])
	}
	rng := rand.New(rand.NewPCG(seed, 2))

	setOn := func(i int, on bool) {
		m.Radio(NodeID(i)).SetOn(on)
		s.setOn(i, on)
	}
	transmit := func(i int) {
		r := m.Radio(NodeID(i))
		f := &Frame{Kind: FrameData, Src: NodeID(i), Dst: BroadcastID, Size: 10 + rng.IntN(60)}
		power := -5 * float64(rng.IntN(4))
		if err := r.Transmit(f, power); err != nil {
			t.Fatal(err)
		}
		id, end := r.curTx.id, r.curTx.end
		s.start(i, id, power, eng.Now())
		// Scheduled after the medium's end of air, so it runs right after
		// it at the same instant.
		eng.ScheduleAt(end, func() { s.end(i, id, f, end) })
	}

	var lostSeen, checked int
	check := func(step int) {
		now := eng.Now()
		for i := 0; i < n; i++ {
			r, sr := m.Radio(NodeID(i)), &s.radios[i]
			if r.On() != sr.on {
				t.Fatalf("step %d radio %d: on %v, shadow %v", step, i, r.On(), sr.on)
			}
			if r.rxActive && r.rx.lost {
				lostSeen++
			}
			if r.Counters() != sr.counters {
				t.Fatalf("step %d radio %d: counters %+v, shadow %+v", step, i, r.Counters(), sr.counters)
			}
			h := handlers[i]
			if h.txDone != sr.txDone || len(h.frames) != len(sr.delivered) {
				t.Fatalf("step %d radio %d: %d tx-done, %d frames; shadow %d, %d",
					step, i, h.txDone, len(h.frames), sr.txDone, len(sr.delivered))
			}
			for k := range h.frames {
				if h.frames[k] != sr.delivered[k] {
					t.Fatalf("step %d radio %d: delivery %d differs from the shadow's", step, i, k)
				}
			}
			if !sr.on {
				continue
			}
			if len(r.air) != len(sr.air) {
				t.Fatalf("step %d radio %d: %d frames on the air, shadow %d", step, i, len(r.air), len(sr.air))
			}
			total := s.noiseMW(i, now)
			for k, e := range sr.air {
				got := r.air[k]
				if got.txID != uint32(e.id) || math.Float64bits(got.rxDBm) != math.Float64bits(e.dbm) {
					t.Fatalf("step %d radio %d: air entry %d is (%d, %v), shadow (%d, %v)",
						step, i, k, got.txID, got.rxDBm, e.id, e.dbm)
				}
				total += dbmToMW(e.dbm)
			}
			if got, want := r.CCABusy(), mwToDBm(total) > ccaThresholdDBm; got != want {
				t.Fatalf("step %d radio %d: CCA busy %v, shadow %v", step, i, got, want)
			}
			checked++
		}
	}

	crashes := runChurn(t, eng, m, rng, events, churnOps{
		setOn: setOn,
		forceOff: func(i int) {
			m.Radio(NodeID(i)).ForceOff()
			s.forceOff(i)
		},
		transmit: transmit,
		check:    check,
	})
	for i := 0; i < n; i++ {
		r := m.Radio(NodeID(i))
		if got, want := r.rng.Float64(), s.radios[i].rng.Float64(); got != want {
			t.Fatalf("radio %d: next reception draw %v, shadow %v", i, got, want)
		}
	}
	if got, want := m.jitterRNG.Float64(), s.jitter.Float64(); got != want {
		t.Fatalf("next jitter draw %v, shadow %v", got, want)
	}
	var delivered, corrupted uint64
	for i := range s.radios {
		delivered += s.radios[i].counters.RxDelivered
		corrupted += s.radios[i].counters.RxCorrupted
	}
	t.Logf("%d crash retransmissions, %d lost receptions seen, %d delivered, %d corrupted, %d awake checks",
		crashes, lostSeen, delivered, corrupted, checked)
	if crashes < 50 || lostSeen < 50 || delivered < 100 || corrupted < 100 || checked < 10000 {
		t.Fatalf("schedule too narrow: %d crash retransmissions, %d lost receptions seen, %d delivered, %d corrupted, %d awake checks",
			crashes, lostSeen, delivered, corrupted, checked)
	}
}

// churnOps are the actions of the churn schedule: a test mirrors them
// into its reference, if it keeps one, and check runs its invariants.
type churnOps struct {
	setOn    func(i int, on bool)
	forceOff func(i int)
	transmit func(i int)
	check    func(step int)
}

// runChurn drives m through a seeded random schedule of wakes, sleeps,
// forced power-offs and transmissions, with idle gaps, calling
// ops.check after every event and once more when the engine has run
// dry. Among the power-offs are crash retransmissions: a node dies
// mid-frame and reboots at once, so its second frame goes on the air
// while the first is still on it; runChurn returns how many it made.
func runChurn(t *testing.T, eng *sim.Engine, m *Medium, rng *rand.Rand, events int, ops churnOps) (crashes int) {
	t.Helper()
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		if rng.IntN(10) < 3 {
			ops.setOn(i, true)
		}
	}
	step := 0
	var act func()
	act = func() {
		i := rng.IntN(n)
		r := m.Radio(NodeID(i))
		switch a := rng.IntN(100); {
		case a < 40:
			if !r.On() {
				ops.setOn(i, true)
			}
			if !r.Transmitting() {
				ops.transmit(i)
			}
		case a < 65:
			ops.setOn(i, true)
		case a < 85:
			if !r.Transmitting() {
				ops.setOn(i, false)
			}
		case a < 92:
			ops.forceOff(i)
		default:
			ops.setOn(i, true)
			if !r.Transmitting() {
				ops.transmit(i)
			}
			ops.forceOff(i)
			ops.setOn(i, true)
			ops.transmit(i)
			crashes++
		}
		ops.check(step)
		if step++; step < events {
			gap := time.Duration(rng.IntN(600_000))
			if rng.IntN(50) == 0 {
				// An idle stretch: CPM sources reseed and WiFi epochs
				// lapse, so a skipped noise read would show.
				gap = 50*time.Millisecond + time.Duration(rng.IntN(400))*time.Millisecond
			}
			eng.Schedule(gap, act)
		}
	}
	eng.Schedule(0, act)
	if err := eng.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	ops.check(step)
	return crashes
}

// TestReceiverListMatchesAwakeSet runs the churn schedule and checks,
// after every event, each frame's receiver list against the awake
// mirror: strictly ascending, only notified links of the sender's row,
// and every notified link whose receiver is awake. A listed receiver
// may be asleep (it slept after the frame started). The schedule must
// make wakes insert into frames on the air, and wakes of radios that a
// frame lists already.
func TestReceiverListMatchesAwakeSet(t *testing.T) {
	const seed, events = 29, 20000
	eng := sim.NewEngine()
	model := noise.Train(noise.GenerateTrace(20000, 3))
	m, err := NewMedium(eng, benchDeployment(4, seed), model, benchParams(GainPerLink), seed)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		m.Radio(NodeID(i)).SetHandler(&recordingHandler{})
	}
	rng := rand.New(rand.NewPCG(seed, 3))
	listed := func() (total int) {
		for _, tx := range m.inFlight {
			total += len(tx.rcv)
		}
		return total
	}
	var inserts, rewakes int
	setOn := func(i int, on bool) {
		r := m.Radio(NodeID(i))
		if !on || r.On() {
			r.SetOn(on)
			return
		}
		before := listed()
		r.SetOn(true)
		woke := len(r.air)
		added := listed() - before
		inserts += added
		rewakes += woke - added
	}
	transmit := func(i int) {
		f := &Frame{Kind: FrameData, Src: NodeID(i), Dst: BroadcastID, Size: 10 + rng.IntN(60)}
		if err := m.Radio(NodeID(i)).Transmit(f, -5*float64(rng.IntN(4))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step int) {
		for _, tx := range m.inFlight {
			rowEnd := m.linkStart[tx.src+1]
			next := 0
			for j, k := range tx.rcv {
				if j > 0 && k <= tx.rcv[j-1] {
					t.Fatalf("step %d frame %d: receiver list %v not strictly ascending", step, tx.id, tx.rcv)
				}
				if k < tx.rowStart || k >= rowEnd || !m.notified(k) {
					t.Fatalf("step %d frame %d: link %d is not a notified link of node %d", step, tx.id, k, tx.src)
				}
			}
			for k := tx.rowStart; k < rowEnd; k++ {
				if !m.notified(k) || !m.awake[m.linkDst[k]] {
					continue
				}
				for next < len(tx.rcv) && tx.rcv[next] < k {
					next++
				}
				if next == len(tx.rcv) || tx.rcv[next] != k {
					t.Fatalf("step %d frame %d: awake receiver %d (link %d) not listed in %v", step, tx.id, m.linkDst[k], k, tx.rcv)
				}
			}
		}
	}
	crashes := runChurn(t, eng, m, rng, events, churnOps{
		setOn:    setOn,
		forceOff: func(i int) { m.Radio(NodeID(i)).ForceOff() },
		transmit: transmit,
		check:    check,
	})
	t.Logf("%d crash retransmissions, %d wake inserts, %d wakes already listed", crashes, inserts, rewakes)
	if crashes < 50 || inserts < 1000 || rewakes < 50 {
		t.Fatalf("schedule too narrow: %d crash retransmissions, %d wake inserts, %d wakes already listed", crashes, inserts, rewakes)
	}
}

// TestEndOfAirSkipsSleepers pins that end of air calls no radio that is
// asleep when the frame leaves, also one the frame lists because it was
// awake at the start. Such a call would find nothing (sleep empties the
// air set), so the test plants an entry with the frame's id in the
// sleeper's air set, which a call would remove.
func TestEndOfAirSkipsSleepers(t *testing.T) {
	eng := sim.NewEngine()
	m, err := NewMedium(eng, benchDeployment(3, 1), nil, benchParams(GainPerLink), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumNodes(); i++ {
		m.Radio(NodeID(i)).SetOn(true)
	}
	src := m.Radio(0)
	if err := src.Transmit(&Frame{Kind: FrameData, Src: 0, Dst: BroadcastID, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	tx := src.curTx
	if len(tx.rcv) == 0 {
		t.Fatal("the frame lists no receiver")
	}
	sleeper := m.Radio(m.linkDst[tx.rcv[0]])
	sleeper.SetOn(false)
	sleeper.air = append(sleeper.air, airEntry{txID: uint32(tx.id), slot: -1, mW: -1})
	if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if src.curTx != nil {
		t.Fatal("the frame is still on the air")
	}
	if len(sleeper.air) != 1 {
		t.Fatal("end of air called a listed receiver that was asleep")
	}
}
