package radio

import (
	"errors"
	"math"
	"math/rand/v2"
	"time"
)

// State is the radio state machine state.
type State uint8

// Radio states.
const (
	StateOff State = iota + 1
	StateListening
	StateReceiving
	StateTransmitting
)

// Errors returned by Transmit.
var (
	ErrRadioOff = errors.New("radio: transmit while off")
	ErrTxBusy   = errors.New("radio: transmit while already transmitting")
)

// Handler receives radio events. MAC layers implement it.
type Handler interface {
	// OnFrame delivers a successfully decoded frame. The frame is shared
	// with other receivers and must be treated as read-only.
	OnFrame(f *Frame)
	// OnTxDone signals the end of a transmission started with Transmit.
	OnTxDone()
}

// Counters aggregates per-radio traffic statistics.
type Counters struct {
	TxData      uint64
	TxAck       uint64
	RxDelivered uint64
	RxCorrupted uint64
}

// Radio is one node's transceiver. All methods must be called from engine
// event context (single-goroutine simulation).
type Radio struct {
	medium  *Medium
	id      NodeID
	noise   noiseSource
	rng     *rand.Rand
	handler Handler
	// noiseDBm and noiseMW memoise the last noise-floor conversion
	// (fastMW; NaN until the first read, so it always converts): a CPM
	// source changes once per 1 ms sample and the quiet floor never, so
	// most reads skip the dBm→mW conversion.
	noiseDBm, noiseMW float64

	state State
	// air holds every in-flight transmission audible at this node, in
	// arrival order, while the radio is on. It is empty while off: the
	// medium notifies only awake radios and rebuilds the set from the
	// frames in flight when the radio wakes (Medium.wake), so CCA is
	// correct right after waking. Power sums iterate it in arrival order,
	// so they are reproducible to the last bit.
	air []airEntry

	// rx is the in-progress reception context, valid only while rxActive
	// is set. It is a value field: locking onto a frame used to allocate
	// one rxContext per audible neighbor per transmission, the largest
	// allocation site on the recorded frame-path profiles.
	rx       rxContext
	rxActive bool
	curTx    *transmission

	onSince time.Duration
	onTime  time.Duration

	counters Counters
}

// noiseSource abstracts the CPM source so tests can run without a model.
type noiseSource interface {
	ReadAt(t time.Duration) float64
}

// airEntry is one in-flight transmission audible at a radio. The linear
// power mW is fastMW(rxDBm), converted on first read only (negative until
// then): a radio that is transmitting when a frame arrives, or that
// wakes to find it on the air, or whose reception is already lost,
// records it and pays for the conversion only if CCA reads it.
type airEntry struct {
	// txID is the low 32 bits of the transmission id. Frames on the air
	// together are far fewer than 2³² transmissions apart, so it names
	// its frame within an air set.
	txID uint32
	// slot is the entry's index in the reception log while a logged
	// reception is in flight, so its departure is stamped without a
	// search. Entries get one when a reception locks or when they arrive
	// during one (-1 for the locked frame); outside a logged reception it
	// is stale and unread.
	slot  int32
	rxDBm float64
	mW    float64
}

// powerMW returns the entry's received power in mW, converting once.
func (a *airEntry) powerMW() float64 {
	if a.mW < 0 {
		a.mW = fastMW(a.rxDBm)
	}
	return a.mW
}

// rxContext is a reception in progress. Its powers are fastMW values: the
// receive path decides from them where fastSlack settles the decision and
// otherwise rebuilds the exact ones, the signal from signalDBm and the
// worst interference from the log.
type rxContext struct {
	tx          *transmission
	signalDBm   float64
	signalMW    float64
	maxInterfMW float64
	// interfMW is the interference sum of the last arrival, the left fold
	// of the air set in arrival order without the locked frame. The next
	// arrival adds its own power to it, which is that fold taken afresh,
	// bit for bit. Negative once an entry has left the air set: the next
	// arrival then folds the whole set afresh.
	interfMW float64
	// log records the reception's interferers and folds for the exact
	// replay. Pooled, and held only while the reception is in flight, not
	// lost and has had an interferer: until the first one every fold is
	// 0, which leaves the worst fold as it is, so it starts no log (nil
	// otherwise).
	log *rxLog
	// outshoneDBm is the locked frame's power minus the capture threshold
	// plus outshoneMarginDB: an interferer received above it loses the
	// frame. Once the reception is lost it records what lost it for the
	// traced SINR (see lose).
	outshoneDBm float64
	// lost marks a reception the capture gate must reject whatever else
	// arrives (set through lose by onAirStart, interfere and
	// raiseInterference); the receive path stops converting and logging
	// powers for it.
	lost bool
}

// outshoneMarginDB is the slack of the outshone test. A floating-point
// sum of positive powers is never below any one of them, so an
// interferer more than the capture threshold above the signal fails the
// gate whatever else is on the air; the dB/mW conversions round to about
// 1e-14 dB, far inside the margin.
const outshoneMarginDB = 1e-6

// ID returns the node id this radio belongs to.
func (r *Radio) ID() NodeID { return r.id }

// Params returns the physical-layer parameters of the medium.
func (r *Radio) Params() Params { return r.medium.params }

// SetHandler installs the MAC-layer event handler.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// State returns the current radio state.
func (r *Radio) State() State {
	if r.state == 0 {
		return StateOff
	}
	return r.state
}

// On reports whether the radio is powered.
func (r *Radio) On() bool { return r.State() != StateOff }

// SetOn powers the radio up or down. Powering down aborts any reception in
// progress; powering down while transmitting is a protocol-stack bug and
// panics.
func (r *Radio) SetOn(on bool) {
	now := r.medium.eng.Now()
	switch {
	case on && r.State() == StateOff:
		r.state = StateListening
		r.onSince = now
		r.medium.wake(r)
	case !on && r.State() != StateOff:
		if r.state == StateTransmitting {
			panic("radio: SetOn(false) during transmission")
		}
		r.dropRx()
		r.state = StateOff
		r.onTime += now - r.onSince
		r.medium.sleep(r)
	}
}

// ForceOff powers the radio down unconditionally, aborting any reception
// and abandoning any transmission in progress (a node dying mid-frame; the
// energy already on the air completes at the medium's discretion).
func (r *Radio) ForceOff() {
	if r.State() == StateOff {
		return
	}
	r.dropRx()
	r.curTx = nil
	r.onTime += r.medium.eng.Now() - r.onSince
	r.state = StateOff
	r.medium.sleep(r)
}

// OnTime returns cumulative powered time (the duty-cycle numerator).
func (r *Radio) OnTime() time.Duration {
	t := r.onTime
	if r.State() != StateOff {
		t += r.medium.eng.Now() - r.onSince
	}
	return t
}

// Counters returns a copy of the traffic counters.
func (r *Radio) Counters() Counters { return r.counters }

// CCABusy samples clear-channel assessment: true when the total energy at
// the antenna exceeds the CCA threshold. The radio must be on.
//
// The noise is read once. Most samples are settled in dB from the largest
// term, without converting a power: a float sum of non-negative terms is
// never below any one of them and never above count·max·(1 + count·2⁻⁵³),
// and the dB↔mW conversions round to about 1e-14 dB, so a term more than
// ccaMarginDB above the threshold makes the channel busy and a largest
// term more than ccaMarginDB below it after adding 10·log₁₀(count) makes
// it idle, exactly as the fold would. The rest take the arrival-order fold.
func (r *Radio) CCABusy() bool {
	if r.State() == StateOff {
		return false
	}
	m := r.medium
	dbm, wifiOn := m.readNoise(r, m.eng.Now())
	top, count := dbm, 1+len(r.air)
	if m.interferer != nil {
		top = max(top, m.wifiDBm(wifiOn))
		count++
	}
	for i := range r.air {
		top = max(top, r.air[i].rxDBm)
	}
	thr := ccaThresholdDBm
	if top > thr+ccaMarginDB {
		return true
	}
	if count < len(tenLog10) && top+tenLog10[count] < thr-ccaMarginDB {
		return false
	}
	if len(r.air) < fastMaxTerms {
		if busy, ok := m.ccaGate.aboveNear(r.channelMW(m.noiseMW(r, dbm, wifiOn))); ok {
			return busy
		}
	}
	return m.ccaGate.above(r.exactChannelMW(dbm, wifiOn))
}

// ccaMarginDB is the slack of CCABusy's dB decisions, far above the
// conversions' rounding.
const ccaMarginDB = 1e-6

// tenLog10[n] is 10·log₁₀(n) dB, the most a sum of n terms can exceed its
// largest; CCA sums past the table take the fold.
var tenLog10 = func() (t [64]float64) {
	for n := range t {
		t[n] = 10 * math.Log10(float64(n))
	}
	return t
}()

// channelMW is the total power at the antenna that CCA thresholds: the
// noise power noiseMW plus every frame on the air, summed in arrival
// order.
func (r *Radio) channelMW(noiseMW float64) float64 {
	total := noiseMW
	for i := range r.air {
		total += r.air[i].powerMW()
	}
	return total
}

// exactChannelMW is channelMW in dbmToMW powers, for a noise reading of
// dbm and the interferer's state wifiOn.
func (r *Radio) exactChannelMW(dbm float64, wifiOn bool) float64 {
	total := r.medium.exactNoiseMW(dbm, wifiOn)
	for i := range r.air {
		total += dbmToMW(r.air[i].rxDBm)
	}
	return total
}

// Transmit puts frame f on the air at powerDBm. The handler's OnTxDone
// fires when the frame leaves the air. Any reception in progress is
// abandoned (the MAC performs CCA before transmitting, so this models a
// deliberate decision, not an accident).
func (r *Radio) Transmit(f *Frame, powerDBm float64) error {
	switch r.State() {
	case StateOff:
		return ErrRadioOff
	case StateTransmitting:
		return ErrTxBusy
	}
	r.dropRx()
	r.state = StateTransmitting
	if f.Kind == FrameAck {
		r.counters.TxAck++
	} else {
		r.counters.TxData++
	}
	r.curTx = r.medium.startTransmission(r, f, powerDBm)
	return nil
}

// dropRx abandons any reception in progress. Clearing the transmission
// pointer matters: transmission records are pooled by the medium, and an
// abandoned context must not pin (or later falsely match) a recycled one.
// The log goes back to the medium's pool. The other fields stay as they
// are until locking onto the next frame rewrites them all, so onAirEnd's
// trace still reads the powers of the reception it has just dropped.
func (r *Radio) dropRx() {
	r.rxActive = false
	r.rx.tx = nil
	r.releaseLog()
}

// releaseLog returns the reception's log buffer to the medium's pool.
func (r *Radio) releaseLog() {
	if r.rx.log != nil {
		r.medium.putLog(r.rx.log)
		r.rx.log = nil
	}
}

// lose settles the reception as lost: nothing it sees from here on can
// save it, so it keeps no log. byDBm is the power of the interferer that
// outshone it, or -Inf when the worst interference sum lost it; sinr
// reads it.
func (r *Radio) lose(byDBm float64) {
	r.rx.lost = true
	r.rx.outshoneDBm = byDBm
	r.releaseLog()
}

// Transmitting reports whether a transmission is in flight.
func (r *Radio) Transmitting() bool { return r.State() == StateTransmitting }

// onAirStart is called by the medium when a transmission begins in range
// of this radio while it is on.
func (r *Radio) onAirStart(tx *transmission, rxPowerDBm float64) {
	r.air = append(r.air, airEntry{txID: uint32(tx.id), slot: -1, rxDBm: rxPowerDBm, mW: -1})
	switch r.State() {
	case StateListening:
		if rxPowerDBm < sensitivityDBm {
			return
		}
		// Lock onto this frame; everything else on the air interferes.
		last := len(r.air) - 1
		r.rx = rxContext{tx: tx, signalDBm: rxPowerDBm, signalMW: r.air[last].powerMW(),
			outshoneDBm: rxPowerDBm - captureThresholdDB + outshoneMarginDB}
		r.rxActive = true
		r.state = StateReceiving
		var sum float64
		for i := range r.air[:last] {
			if r.air[i].rxDBm > r.rx.outshoneDBm {
				r.lose(r.air[i].rxDBm)
				return
			}
			sum += r.air[i].powerMW()
		}
		if last > 0 {
			r.rx.log = r.medium.takeLog()
			for i := range r.air[:last] {
				r.air[i].slot = r.rx.log.add(r.air[i].rxDBm)
			}
			r.rx.log.fold()
		}
		r.rx.interfMW = sum
		r.raiseInterference(sum)
	case StateReceiving:
		if r.rxActive && !r.rx.lost {
			r.interfere(rxPowerDBm)
		}
	}
}

// interfere accounts a frame that arrived, as the newest entry of the air
// set, during a reception that is not yet lost.
func (r *Radio) interfere(rxPowerDBm float64) {
	if rxPowerDBm > r.rx.outshoneDBm {
		r.lose(rxPowerDBm)
		return
	}
	if r.rx.log == nil {
		r.rx.log = r.medium.takeLog()
	}
	r.air[len(r.air)-1].slot = r.rx.log.add(rxPowerDBm)
	r.rx.log.fold()
	if r.rx.interfMW >= 0 {
		r.rx.interfMW += r.air[len(r.air)-1].powerMW()
	} else {
		r.rx.interfMW = r.interferenceMW(uint32(r.rx.tx.id))
	}
	r.raiseInterference(r.rx.interfMW)
}

// raiseInterference records an interference sum. Once the signal is
// below the capture threshold by more than the gate's band against it,
// the reception is lost: the worst interference only grows, and division
// is monotone, so the end-of-air gate must reject the frame. The ratio
// is of fast powers, so aboveNear must settle it below the band.
func (r *Radio) raiseInterference(i float64) {
	if i <= r.rx.maxInterfMW {
		return
	}
	r.rx.maxInterfMW = i
	if r.rx.log.len() < fastMaxTerms {
		if above, ok := r.medium.captureGate.aboveNear(r.rx.signalMW / i); ok && !above {
			r.lose(math.Inf(-1))
		}
	}
}

// interferenceMW sums audible power excluding the given transmission.
func (r *Radio) interferenceMW(exclude uint32) float64 {
	var sum float64
	for i := range r.air {
		if r.air[i].txID != exclude {
			sum += r.air[i].powerMW()
		}
	}
	return sum
}

// removeAir drops a transmission from the air set, keeping arrival order;
// a kept interference sum no longer holds once an entry has gone.
func (r *Radio) removeAir(id uint32) {
	air := r.air
	for i := range air {
		if air[i].txID == id {
			if r.rx.log != nil && air[i].slot >= 0 {
				r.rx.log.leave(air[i].slot)
			}
			// Air sets hold a handful of entries: shifting by hand beats
			// a memmove call.
			for ; i+1 < len(air); i++ {
				air[i] = air[i+1]
			}
			r.air = air[:len(air)-1]
			r.rx.interfMW = -1
			return
		}
	}
}

// onAirEnd is called by the medium when a transmission leaves the air
// while this radio is on.
func (r *Radio) onAirEnd(tx *transmission) {
	r.removeAir(uint32(tx.id))
	if r.State() != StateReceiving || !r.rxActive || r.rx.tx != tx {
		return
	}
	m := r.medium
	// The draw comes first and is unconditional — even a frame already
	// lost consumes it — so each adjudication advances the radio's RNG
	// stream by exactly one value.
	u := r.rng.Float64()
	// The noise is read for every adjudication; a lost one reads it only
	// to advance it.
	dbm, wifiOn := m.readNoise(r, m.eng.Now())
	var ok bool
	if !r.rx.lost {
		ok = r.decide(u, dbm, wifiOn, tx.frame.Size)
	}
	r.dropRx()
	r.state = StateListening
	if ok && r.medium.dropFn != nil && r.medium.dropFn(r.id, tx.frame) {
		// Injected loss window: the frame decoded fine but the fault
		// filter discards it. The PRR draw above already happened, so
		// fault-free links keep their exact RNG stream.
		ok = false
	}
	if ok {
		r.counters.RxDelivered++
	} else {
		r.counters.RxCorrupted++
	}
	if r.medium.traceFn != nil {
		// The SINR costs a logarithm, so only a trace consumer pays it.
		kind := TraceRxCorrupt
		if ok {
			kind = TraceRxOK
		}
		r.medium.trace(TraceEvent{Kind: kind, Node: r.id, Frame: tx.frame, SINRdB: mwToDBm(r.sinr(m.noiseMW(r, dbm, wifiOn)))})
	}
	if ok && r.handler != nil {
		r.handler.OnFrame(tx.frame)
	}
}

// decide adjudicates the reception at its end against the draw u and the
// noise reading (dbm, wifiOn), returning what rxDecide returns on exact
// powers. It first decides on the fast powers; only a decision they leave
// open takes the exact powers, the worst interference replayed from the
// log.
func (r *Radio) decide(u, dbm float64, wifiOn bool, frameBytes int) bool {
	m := r.medium
	if r.rx.log.len() < fastMaxTerms {
		if ok, settled := m.params.fastDecide(m.captureGate, u, r.rx.signalMW, r.rx.maxInterfMW, m.noiseMW(r, dbm, wifiOn), frameBytes); settled {
			return ok
		}
	}
	var worst float64
	m.replayMW, worst = r.rx.log.worst(m.replayMW)
	return m.params.rxDecide(m.captureGate, u, dbmToMW(r.rx.signalDBm), worst, m.exactNoiseMW(dbm, wifiOn), frameBytes)
}

// sinr is the SINR a traced reception reports, from the fast powers it
// holds when settled and the noise power noiseMW: the signal over the
// noise plus the worst interference for a reception judged at its end or
// lost to a sum, plus the interferer that outshone it otherwise. A
// reception lost either way reports an SINR below the capture threshold.
func (r *Radio) sinr(noiseMW float64) float64 {
	interf := r.rx.maxInterfMW
	if r.rx.lost && r.rx.outshoneDBm > math.Inf(-1) {
		interf = fastMW(r.rx.outshoneDBm)
	}
	return r.rx.signalMW / (noiseMW + interf)
}

// txDone is called by the medium when this radio's transmission ends.
func (r *Radio) txDone(tx *transmission) {
	if r.curTx != tx {
		return
	}
	r.curTx = nil
	if r.state == StateTransmitting {
		r.state = StateListening
	}
	if r.handler != nil {
		r.handler.OnTxDone()
	}
}
