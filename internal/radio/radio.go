package radio

import (
	"errors"
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

	state State
	// air holds every in-flight transmission audible at this node, in
	// arrival order. Maintained even while off so CCA is correct right
	// after waking. Power sums iterate it in that fixed order, so they
	// are reproducible to the last bit.
	air []airEntry

	// rx is the in-progress reception context, valid only while rxActive
	// is set. It is a value field: locking onto a frame used to allocate
	// one rxContext per audible neighbor per transmission, the largest
	// allocation site on the recorded frame-path profiles.
	rx       rxContext
	rxActive bool
	curTx    *transmission

	onSince   time.Duration
	onTime    time.Duration
	txAirtime time.Duration

	counters Counters
}

// noiseSource abstracts the CPM source so tests can run without a model.
type noiseSource interface {
	ReadAt(t time.Duration) float64
}

// airEntry is one in-flight transmission audible at a radio. The linear
// power mW is converted from rxDBm on first read only (negative until
// then): a radio that is off or transmitting when a frame arrives — most
// receivers under LPL duty cycling — records it and never pays for the
// dBm→mW conversion.
type airEntry struct {
	txID  uint64
	rxDBm float64
	mW    float64
}

// powerMW returns the entry's received power in mW, converting once.
func (a *airEntry) powerMW() float64 {
	if a.mW < 0 {
		a.mW = dbmToMW(a.rxDBm)
	}
	return a.mW
}

type rxContext struct {
	tx          *transmission
	signalMW    float64
	maxInterfMW float64
}

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
	case !on && r.State() != StateOff:
		if r.state == StateTransmitting {
			panic("radio: SetOn(false) during transmission")
		}
		r.dropRx()
		r.state = StateOff
		r.onTime += now - r.onSince
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
func (r *Radio) CCABusy() bool {
	if r.State() == StateOff {
		return false
	}
	return mwToDBm(r.channelMW()) > r.medium.params.CCAThresholdDBm
}

// channelMW is the total power at the antenna that CCA thresholds: the
// noise floor plus every frame on the air, summed in arrival order.
func (r *Radio) channelMW() float64 {
	total := r.medium.noiseAt(r.id, r.medium.eng.Now())
	for i := range r.air {
		total += r.air[i].powerMW()
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
	r.txAirtime += r.medium.params.Airtime(f.Size)
	r.curTx = r.medium.startTransmission(r, f, powerDBm)
	return nil
}

// dropRx abandons any reception in progress. Clearing the transmission
// pointer matters: transmission records are pooled by the medium, and an
// abandoned context must not pin (or later falsely match) a recycled one.
func (r *Radio) dropRx() {
	r.rxActive = false
	r.rx = rxContext{}
}

// Transmitting reports whether a transmission is in flight.
func (r *Radio) Transmitting() bool { return r.State() == StateTransmitting }

// onAirStart is called by the medium when a transmission begins in range.
func (r *Radio) onAirStart(tx *transmission, rxPowerDBm float64) {
	r.air = append(r.air, airEntry{txID: tx.id, rxDBm: rxPowerDBm, mW: -1})
	switch r.State() {
	case StateListening:
		if rxPowerDBm >= r.medium.params.SensitivityDBm {
			// Lock onto this frame; everything else on the air interferes.
			r.rx = rxContext{tx: tx, signalMW: r.air[len(r.air)-1].powerMW()}
			r.rx.maxInterfMW = r.interferenceMW(tx.id)
			r.rxActive = true
			r.state = StateReceiving
		}
	case StateReceiving:
		if r.rxActive {
			if i := r.interferenceMW(r.rx.tx.id); i > r.rx.maxInterfMW {
				r.rx.maxInterfMW = i
			}
		}
	}
}

// interferenceMW sums audible power excluding the given transmission.
func (r *Radio) interferenceMW(exclude uint64) float64 {
	var sum float64
	for i := range r.air {
		if r.air[i].txID != exclude {
			sum += r.air[i].powerMW()
		}
	}
	return sum
}

// removeAir drops a transmission from the air set, keeping arrival order.
func (r *Radio) removeAir(id uint64) {
	air := r.air
	for i := range air {
		if air[i].txID == id {
			// Air sets hold a handful of entries: shifting by hand beats
			// a memmove call.
			for ; i+1 < len(air); i++ {
				air[i] = air[i+1]
			}
			r.air = air[:len(air)-1]
			return
		}
	}
}

// onAirEnd is called by the medium when a transmission leaves the air.
func (r *Radio) onAirEnd(tx *transmission) {
	r.removeAir(tx.id)
	if r.State() != StateReceiving || !r.rxActive || r.rx.tx != tx {
		return
	}
	ctx := r.rx
	r.dropRx()
	r.state = StateListening
	nowNoise := r.medium.noiseAt(r.id, r.medium.eng.Now())
	prr, snr := r.medium.params.rxPRR(ctx.signalMW, ctx.maxInterfMW, nowNoise, tx.frame.Size)
	// The draw is unconditional — even a frame the capture gate already
	// rejected consumes it — so each adjudication advances the radio's
	// RNG stream by exactly one value.
	ok := r.rng.Float64() < prr
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
		r.medium.trace(TraceEvent{Kind: kind, Node: r.id, Frame: tx.frame, SINRdB: mwToDBm(snr)})
	}
	if ok && r.handler != nil {
		r.handler.OnFrame(tx.frame)
	}
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
