// Package mac implements the link layer used by every protocol in this
// repository: CSMA/CA with clear-channel assessment, BoX-MAC-2-style
// low-power listening (LPL) duty cycling, link-layer acknowledgements, and
// anycast acknowledgement election with priority slots — the mechanism
// TeleAdjusting's opportunistic forwarding rides on (the awake neighbor
// with the most routing progress acks first and suppresses the others).
package mac

import (
	"errors"
	"math/rand/v2"
	"slices"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// Decision tells the MAC what to do with a received data frame.
type Decision uint8

// Classification decisions.
const (
	// Ignore drops the frame silently.
	Ignore Decision = iota + 1
	// Deliver passes the frame up without acknowledging (broadcasts).
	Deliver
	// AckAndDeliver acknowledges after the priority slot, then delivers.
	AckAndDeliver
)

// Classification is the upper layer's verdict on an overheard frame.
type Classification struct {
	Decision Decision
	// Prio orders contending anycast receivers: lower values ack earlier
	// and win the election. Clamped to [0, maxAckSlots-1].
	Prio int
}

// Upper is the protocol layer above the MAC.
type Upper interface {
	// Classify inspects a decoded data frame and decides acceptance. It is
	// called once per link-layer packet (retransmissions of the same
	// (src,seq) reuse the first verdict).
	Classify(f *radio.Frame) Classification
	// Deliver hands an accepted frame up, exactly once per (src,seq)
	// within the dedup window.
	Deliver(f *radio.Frame)
	// OnSendDone reports the fate of a Send: for acked unicast/anycast,
	// acker is the acknowledging node; ok is false when the LPL round
	// ended unacknowledged. Broadcasts always complete with ok=true and
	// acker=BroadcastID.
	OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool)
}

// Config holds the MAC parameters a scenario may vary.
type Config struct {
	// WakeInterval is the LPL wake-up period (paper: 512 ms).
	WakeInterval time.Duration
	// TxPowerDBm is the transmit power.
	TxPowerDBm float64
	// SleepAfterRx returns to sleep right after a received frame has been
	// handled (BoX-MAC-2's early-sleep optimization): the rest of an LPL
	// stream addressed elsewhere is not worth listening to.
	SleepAfterRx bool
	// AlwaysOn disables duty cycling (typical for the sink).
	AlwaysOn bool
}

// DefaultConfig returns the paper's LPL configuration (512 ms wake-up).
func DefaultConfig() Config {
	return Config{
		WakeInterval: 512 * time.Millisecond,
		SleepAfterRx: true,
	}
}

// streamSlack extends the LPL streaming deadline beyond WakeInterval: an
// eighth of the wake-up period (64 ms at the paper's 512 ms).
func (c Config) streamSlack() time.Duration { return c.WakeInterval / 8 }

// dedupWindow is how long (src,seq) reception state is remembered: two
// wake-up periods, longer than any LPL stream's WakeInterval+streamSlack,
// so a late copy of a stream is still recognised as a duplicate.
func (c Config) dedupWindow() time.Duration { return 2 * c.WakeInterval }

// Fixed BoX-MAC-2 timing of the CC2420 stack.
const (
	// probeSamples CCA samples spaced probeSpacing apart form the wake-up
	// channel probe.
	probeSamples = 5
	probeSpacing = 3 * time.Millisecond
	// idleSleepAfter is how long an awake radio must observe a quiet
	// channel (and no reception in progress) before sleeping again.
	idleSleepAfter = 24 * time.Millisecond
	// idleCheckEvery is the polling period for the idle check.
	idleCheckEvery = 6 * time.Millisecond
	// ackTurnaround is the base RX→TX turnaround before an ack.
	ackTurnaround = 300 * time.Microsecond
	// ackSlot is the per-priority ack election slot width.
	ackSlot = 600 * time.Microsecond
	// maxAckSlots bounds the election (prio clamps to maxAckSlots-1).
	maxAckSlots = 8
	// ackGuard pads the sender's ack wait beyond the last slot.
	ackGuard = 500 * time.Microsecond
	// broadcastGap separates the repeated copies of an LPL broadcast
	// stream. It must be wide enough for a neighbor's CSMA (CCA sample +
	// backoff) to inject a unicast frame, or broadcast streams starve all
	// unicast traffic around them.
	broadcastGap = 8 * time.Millisecond
	// CSMA backoff window.
	backoffMin = 320 * time.Microsecond
	backoffMax = 2560 * time.Microsecond
)

// ErrQueueFull is returned by Send when too many packets are pending.
var ErrQueueFull = errors.New("mac: send queue full")

// ErrDead is returned by Send after Kill.
var ErrDead = errors.New("mac: node is dead")

const sendQueueCap = 32

// Stats aggregates MAC-level statistics.
type Stats struct {
	SendsStarted   uint64
	SendsAcked     uint64
	SendsFailed    uint64
	SendsBroadcast uint64
	// FrameTx counts individual frame transmissions (LPL streaming
	// repetitions included).
	FrameTx uint64
	// AcksSent counts acknowledgement transmissions.
	AcksSent uint64
	// Suppressed counts anycast acceptances cancelled because a
	// better-placed neighbor acked first.
	Suppressed uint64
}

type outstanding struct {
	frame    *radio.Frame
	deadline time.Duration
	attempts int
	// expectsAck is whether the frame solicits link-layer acks, decided
	// once when the send starts.
	expectsAck bool
}

// MAC is one node's link layer instance.
type MAC struct {
	eng   *sim.Engine
	radio *radio.Radio
	cfg   Config
	rng   *rand.Rand
	upper Upper

	queue []*radio.Frame
	cur   *outstanding
	// curBuf backs cur so starting a send never allocates; cur is nil or
	// points at curBuf.
	curBuf outstanding
	seq    uint32

	awakeForTx  bool
	probeEvents []sim.EventRef
	// probeIdx/probeFound track the in-progress wake-up probe sequence;
	// probeFn/csmaFn/electFn are bound once at construction so the LPL
	// wake-up, CSMA backoff, and ack-election hot paths schedule without
	// allocating per-event closures (all three were top allocation sites
	// on the recorded profiles).
	probeIdx   int
	probeFound bool
	probeFn    func()
	csmaFn     func()
	electFn    func(any)
	idleTimer  *sim.Timer
	ackWait    *sim.Timer
	wakeTicker *sim.Ticker
	// ackTimeout is how long a sent frame waits for its ack: the
	// turnaround, every election slot, a guard and an ack's airtime.
	ackTimeout time.Duration

	// rx remembers every packet heard within the dedup window.
	rx rxTable
	// pool holds the records of pending ack elections, reused once
	// resolved; an rx entry names its record by index. elections counts
	// the records in use: it rises where onData starts an election and
	// falls where one fires (runElection), is cancelled by a peer's ack
	// (onAck) or dies with the node (Kill).
	pool      []*election
	elections int

	// ack is the one frame every ack this MAC sends is filled into,
	// allocated on the first. Refilling it is safe: sendAck refuses while
	// the radio is transmitting, so the last ack has left the air and
	// been delivered, and the radio is forced off only by Kill, after
	// which the MAC sends nothing.
	ack *radio.Frame

	dead  bool
	stats Stats

	// Telemetry (optional; a nil bus is valid and near-free).
	bus        *telemetry.Bus
	cancelling bool
}

var _ radio.Handler = (*MAC)(nil)

// New creates a MAC bound to a radio. Call Start to begin duty cycling.
func New(eng *sim.Engine, r *radio.Radio, cfg Config, rng *rand.Rand, upper Upper) *MAC {
	m := &MAC{
		eng:   eng,
		radio: r,
		cfg:   cfg,
		rng:   rng,
		upper: upper,
		ackTimeout: ackTurnaround + time.Duration(maxAckSlots)*ackSlot + ackGuard +
			r.Params().Airtime(5),
	}
	r.SetHandler(m)
	m.probeFn = m.probeStep
	m.csmaFn = m.csmaAttempt
	m.electFn = m.runElection
	m.idleTimer = sim.NewTimer(eng, m.idleCheck)
	m.ackWait = sim.NewTimer(eng, m.onAckTimeout)
	return m
}

// ID returns the node id.
func (m *MAC) ID() radio.NodeID { return m.radio.ID() }

// SetUpper installs (or replaces) the protocol layer above the MAC; used
// when the upper layer (e.g. the node runtime) is constructed after the
// MAC.
func (m *MAC) SetUpper(u Upper) { m.upper = u }

// Stats returns a copy of the MAC statistics.
func (m *MAC) Stats() Stats { return m.stats }

// SetTelemetry attaches the event bus for send-lifecycle emissions (nil
// disables them). The MAC's counters are read through Stats.
func (m *MAC) SetTelemetry(bus *telemetry.Bus) { m.bus = bus }

// emitMac publishes a MAC-layer event for the frame when anyone listens.
// peer is the counterpart node (the acker for send outcomes, the election
// winner for suppressions; BroadcastID when n/a).
func (m *MAC) emitMac(kind telemetry.Kind, f *radio.Frame, peer radio.NodeID, note string) {
	if !m.bus.Wants(telemetry.LayerMAC) {
		return
	}
	ev := telemetry.Event{Layer: telemetry.LayerMAC, Kind: kind, Node: m.radio.ID(),
		Src: peer, Note: note}
	if f != nil {
		ev.Dst, ev.Seq = f.Dst, f.Seq
		if ids, ok := f.Payload.(telemetry.OpIdentified); ok {
			ev.Op, ev.UID = ids.TelemetryIDs()
		}
	}
	m.bus.Emit(ev)
}

// Dead reports whether Kill has been called.
func (m *MAC) Dead() bool { return m.dead }

// Start begins duty cycling (or powers the radio permanently for AlwaysOn
// nodes). The first wake-up happens at a random phase within WakeInterval.
func (m *MAC) Start() {
	if m.cfg.AlwaysOn {
		m.radio.SetOn(true)
		return
	}
	m.wakeTicker = sim.NewTicker(m.eng, m.cfg.WakeInterval, m.wakeUp)
	phase := time.Duration(m.rng.Int64N(int64(m.cfg.WakeInterval)))
	m.wakeTicker.StartWithOffset(phase)
}

// Kill models node failure: all MAC activity ceases, the radio powers
// down immediately (even mid-transmission), and all future Sends are
// refused — a stray timer in some protocol must not resurrect the node.
func (m *MAC) Kill() {
	m.Stop()
	m.dead = true
	m.cur = nil
	m.queue = nil
	// Cancel pending ack elections eagerly: without this, a dead node's
	// election events linger in the heap and fire later, delivering
	// frames to a protocol stack that is supposed to be gone.
	for _, el := range m.pool {
		el.ev.Cancel()
	}
	m.pool, m.rx, m.elections = nil, rxTable{}, 0
	m.radio.ForceOff()
}

// Stop halts duty cycling and powers the radio down.
func (m *MAC) Stop() {
	if m.wakeTicker != nil {
		m.wakeTicker.Stop()
	}
	m.idleTimer.Stop()
	m.ackWait.Stop()
	for _, ev := range m.probeEvents {
		ev.Cancel()
	}
	m.probeEvents = nil
	if m.radio.On() && !m.radio.Transmitting() {
		m.radio.SetOn(false)
	}
}

// DutyCycle returns the fraction of elapsed time the radio has been on.
func (m *MAC) DutyCycle() float64 {
	now := m.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(m.radio.OnTime()) / float64(now)
}

// RadioOnTime returns the cumulative radio on-time (for windowed
// duty-cycle measurements: snapshot before and after a phase).
func (m *MAC) RadioOnTime() time.Duration { return m.radio.OnTime() }

// --- Sending ---

// Send enqueues a frame. Src and Seq are assigned by the MAC. Unicast and
// anycast (Dst=BroadcastID with AckAndDeliver receivers) frames are
// LPL-streamed until acked or the wake interval is covered; broadcast
// frames marked NoAck are streamed for the full interval.
func (m *MAC) Send(f *radio.Frame) error {
	if m.dead {
		return ErrDead
	}
	if len(m.queue) >= sendQueueCap {
		return ErrQueueFull
	}
	f.Src = m.radio.ID()
	m.seq++
	f.Seq = m.seq
	m.queue = append(m.queue, f)
	m.kick()
	return nil
}

// QueueLen returns the number of frames waiting (excluding in-flight).
func (m *MAC) QueueLen() int { return len(m.queue) }

// CancelSend completes an in-flight or queued send early with a successful
// outcome and no acker — used when the upper layer learns out of band that
// the packet has already progressed (implicit acknowledgement by
// overhearing the next hop's forward). It reports whether the frame was
// found.
func (m *MAC) CancelSend(f *radio.Frame) bool {
	if m.cur != nil && m.cur.frame == f {
		m.cancelling = true
		m.finishSend(radio.BroadcastID, true)
		m.cancelling = false
		return true
	}
	for i, q := range m.queue {
		if q == f {
			m.queue = slices.Delete(m.queue, i, i+1)
			m.emitMac(telemetry.KindMacSendCancelled, f, radio.BroadcastID, "dequeued")
			if m.upper != nil {
				m.upper.OnSendDone(f, radio.BroadcastID, true)
			}
			return true
		}
	}
	return false
}

// Busy reports whether a send is in progress.
func (m *MAC) Busy() bool { return m.cur != nil }

func (m *MAC) kick() {
	if m.cur != nil || len(m.queue) == 0 {
		return
	}
	// Shift in place: re-slicing from the front would walk the queue off
	// its backing array and make Send's append reallocate.
	f := m.queue[0]
	m.queue = slices.Delete(m.queue, 0, 1)
	m.curBuf = outstanding{
		frame:      f,
		deadline:   m.eng.Now() + m.cfg.WakeInterval + m.cfg.streamSlack(),
		expectsAck: expectsAck(f),
	}
	m.cur = &m.curBuf
	m.stats.SendsStarted++
	m.emitMac(telemetry.KindMacSendStart, f, radio.BroadcastID, "")
	m.awakeForTx = true
	if !m.radio.On() {
		m.radio.SetOn(true)
	}
	m.csmaAttempt()
}

// csmaAttempt samples CCA and either transmits or backs off.
func (m *MAC) csmaAttempt() {
	cur := m.cur
	if m.dead || cur == nil {
		return
	}
	if m.eng.Now() >= cur.deadline {
		m.finishSend(radio.BroadcastID, !cur.expectsAck)
		return
	}
	if m.radio.CCABusy() || m.radio.Transmitting() {
		m.backoff()
		return
	}
	if err := m.radio.Transmit(cur.frame, m.cfg.TxPowerDBm); err != nil {
		m.backoff()
		return
	}
	if cur.attempts == 0 {
		// Anchor the stream deadline at the first copy actually sent, so
		// CSMA deferral (a neighbor's stream occupying the channel) does
		// not eat into the wake-interval coverage the stream must provide.
		cur.deadline = m.eng.Now() + m.cfg.WakeInterval + m.cfg.streamSlack()
	}
	cur.attempts++
	m.stats.FrameTx++
}

func (m *MAC) backoff() {
	d := backoffMin +
		time.Duration(m.rng.Int64N(int64(backoffMax-backoffMin)+1))
	m.eng.Schedule(d, m.csmaFn)
}

// expectsAck reports whether the frame solicits link-layer acks. All data
// frames do except pure broadcasts (beacons, dissemination): those are
// identified by the NoAck marker interface on the payload.
func expectsAck(f *radio.Frame) bool {
	if f.Dst != radio.BroadcastID {
		return true
	}
	type noAcker interface{ NoAck() bool }
	if p, ok := f.Payload.(noAcker); ok && p.NoAck() {
		return false
	}
	return true
}

// OnTxDone implements radio.Handler.
func (m *MAC) OnTxDone() {
	cur := m.cur
	if cur == nil {
		// An ack or stray transmission finished.
		m.maybeSleepSoon()
		return
	}
	if cur.expectsAck {
		m.ackWait.Start(m.ackTimeout)
		return
	}
	// Pure broadcast: stream until the deadline, leaving gaps wide enough
	// for neighbors' unicast CSMA to interleave.
	if m.eng.Now() >= cur.deadline {
		m.finishSend(radio.BroadcastID, true)
		return
	}
	m.eng.Schedule(broadcastGap, m.csmaFn)
}

func (m *MAC) onAckTimeout() {
	cur := m.cur
	if cur == nil {
		return
	}
	if m.eng.Now() >= cur.deadline {
		m.finishSend(radio.BroadcastID, false)
		return
	}
	m.csmaAttempt()
}

func (m *MAC) finishSend(acker radio.NodeID, ok bool) {
	cur := m.cur
	m.cur = nil
	m.ackWait.Stop()
	m.awakeForTx = len(m.queue) > 0
	if ok {
		if cur.expectsAck {
			m.stats.SendsAcked++
		} else {
			m.stats.SendsBroadcast++
		}
	} else {
		m.stats.SendsFailed++
	}
	if m.bus.Wants(telemetry.LayerMAC) {
		kind := telemetry.KindMacSendFailed
		switch {
		case m.cancelling:
			kind = telemetry.KindMacSendCancelled
		case ok && cur.expectsAck:
			kind = telemetry.KindMacSendAcked
		case ok:
			kind = telemetry.KindMacSendBroadcastDone
		}
		m.emitMac(kind, cur.frame, acker, "")
	}
	up := m.upper
	frame := cur.frame
	m.kick()
	if m.cur == nil {
		m.maybeSleepSoon()
	}
	if up != nil {
		up.OnSendDone(frame, acker, ok)
	}
}

// --- Receiving ---

// OnFrame implements radio.Handler.
func (m *MAC) OnFrame(f *radio.Frame) {
	switch f.Kind {
	case radio.FrameAck:
		m.onAck(f)
	case radio.FrameData:
		m.onData(f)
	}
	// Receiving traffic counts as channel activity: defer sleeping.
	m.bumpIdle()
}

func (m *MAC) onAck(f *radio.Frame) {
	// Is this ack for my in-flight send?
	if cur := m.cur; cur != nil && f.AckSrc == m.radio.ID() && f.AckSeq == cur.frame.Seq {
		m.finishSend(f.Src, true)
		return
	}
	// Ack for someone else's frame: suppress my pending election entry.
	i := m.rx.find(packetKey(f.AckSrc, f.AckSeq))
	if i < 0 || m.rx.slots[i].elect == 0 {
		return
	}
	e := &m.rx.slots[i]
	el := m.pool[e.elect-1]
	e.elect = 0
	e.suppressed = true
	el.ev.Cancel()
	frame := m.endElection(el)
	m.stats.Suppressed++
	m.emitMac(telemetry.KindMacSuppressed, frame, f.Src, "peer acked first")
}

func (m *MAC) onData(f *radio.Frame) {
	now := m.eng.Now()
	key := packetKey(f.Src, f.Seq)
	i := m.rx.find(key)
	if i >= 0 {
		e := &m.rx.slots[i]
		if e.elect == 0 && now-e.at > m.cfg.dedupWindow() {
			// The dedup window has lapsed, so this is not a retransmission
			// but a reuse of the (src,seq) pair — typically a rebooted
			// neighbor restarting its sequence counter at 1. Forget the
			// stale verdict and classify afresh; without this, every frame
			// a rebooted node sends is swallowed as a duplicate until its
			// counter climbs past its pre-crash value, and the node can
			// never re-attach.
			m.rx.deleteAt(i)
		} else {
			e.at = now
			switch {
			case e.suppressed:
				// Someone else owns this packet; stay quiet.
				m.earlySleep()
			case e.decision == AckAndDeliver && e.delivered:
				// Sender missed our ack: re-ack (unless another ack is
				// already on the air), don't re-deliver.
				if !m.radio.CCABusy() {
					m.sendAck(f)
				}
			case e.elect != 0:
				// Election in progress from an earlier copy; let it play
				// out.
			default:
				m.earlySleep()
			}
			return
		}
	}
	class := Classification{Decision: Ignore}
	if m.upper != nil {
		class = m.upper.Classify(f)
	}
	e := &m.rx.slots[m.rx.add(key, now-m.cfg.dedupWindow())]
	e.at, e.decision = now, class.Decision
	switch class.Decision {
	case Deliver:
		e.delivered = true
		if m.upper != nil {
			m.upper.Deliver(f)
		}
		m.earlySleep()
	case AckAndDeliver:
		prio := class.Prio
		if prio < 0 {
			prio = 0
		}
		if prio >= maxAckSlots {
			prio = maxAckSlots - 1
		}
		// Randomize within the slot so equal-priority contenders
		// serialize; whoever fires second sees the channel busy and
		// yields.
		jitter := time.Duration(m.rng.Int64N(int64(ackSlot / 3)))
		delay := ackTurnaround + time.Duration(prio)*ackSlot + jitter
		e.elect = m.startElection(key, f, delay)
	default:
		// Not for us: the rest of this stream is someone else's.
		m.earlySleep()
	}
}

// startElection schedules the ack election for the packet key on a free
// pool record and returns the record's index plus one.
func (m *MAC) startElection(key rxKey, f *radio.Frame, delay time.Duration) uint16 {
	i := 0
	for i < len(m.pool) && m.pool[i].frame != nil {
		i++
	}
	if i == len(m.pool) {
		m.pool = append(m.pool, new(election))
	}
	el := m.pool[i]
	el.key, el.frame = key, f
	el.ev = m.eng.ScheduleArg(delay, m.electFn, el)
	m.elections++
	return uint16(i + 1)
}

// endElection frees a resolved election's record and returns its frame.
func (m *MAC) endElection(el *election) *radio.Frame {
	f := el.frame
	*el = election{}
	m.elections--
	return f
}

// runElection is the ack-election firing for one received packet: the
// pre-bound target of the ScheduleArg call in startElection (an
// equivalent closure would allocate per received packet). A pending
// election's entry is never deleted, so the lookup finds it.
func (m *MAC) runElection(a any) {
	el := a.(*election)
	e := &m.rx.slots[m.rx.find(el.key)]
	f := m.endElection(el)
	e.elect = 0
	if m.radio.CCABusy() || m.radio.State() == radio.StateReceiving {
		// Another contender's ack (or other traffic) owns the
		// channel: yield the election.
		e.suppressed = true
		m.stats.Suppressed++
		m.emitMac(telemetry.KindMacSuppressed, f, radio.BroadcastID, "election yield")
		m.earlySleep()
		return
	}
	e.delivered = true
	m.sendAck(f)
	if m.upper != nil {
		m.upper.Deliver(f)
	}
	m.earlySleep()
}

// earlySleep returns to sleep immediately after handling a frame
// (SleepAfterRx): a short grace period lets an in-flight ack transmission
// finish first.
func (m *MAC) earlySleep() {
	if !m.cfg.SleepAfterRx || m.cfg.AlwaysOn {
		return
	}
	if !m.radio.On() || m.awakeForTx || m.cur != nil || m.hasPendingAcks() {
		return
	}
	if m.radio.Transmitting() {
		m.idleTimer.Start(idleCheckEvery)
		return
	}
	m.sleep()
}

// sendAck transmits an acknowledgement immediately (acks skip CSMA: they
// own their election slot).
func (m *MAC) sendAck(f *radio.Frame) {
	if !m.radio.On() || m.radio.Transmitting() {
		return
	}
	if m.ack == nil {
		m.ack = new(radio.Frame)
	}
	*m.ack = radio.NewAck(m.radio.ID(), f)
	if err := m.radio.Transmit(m.ack, m.cfg.TxPowerDBm); err == nil {
		m.stats.AcksSent++
	}
}

// --- Duty cycling ---

func (m *MAC) wakeUp() {
	if m.radio.On() {
		return // already awake (sending or lingering)
	}
	m.radio.SetOn(true)
	m.probeEvents = m.probeEvents[:0]
	m.probeIdx = 0
	m.probeFound = false
	for i := 0; i < probeSamples; i++ {
		ev := m.eng.Schedule(time.Duration(i)*probeSpacing, m.probeFn)
		m.probeEvents = append(m.probeEvents, ev)
	}
}

// probeStep is one CCA sample of the wake-up probe. The samples fire in
// scheduling order, so the step index is tracked on the MAC rather than
// captured per-event (wakeUp used to allocate one closure per sample).
func (m *MAC) probeStep() {
	i := m.probeIdx
	m.probeIdx++
	if m.probeFound || !m.radio.On() {
		return
	}
	if m.radio.CCABusy() || m.radio.State() == radio.StateReceiving {
		m.probeFound = true
		m.bumpIdle()
		return
	}
	if i == probeSamples-1 && !m.awakeForTx && !m.idleTimer.Pending() {
		// Quiet channel: end of probe, go back to sleep.
		m.sleep()
	}
}

// bumpIdle restarts the idle countdown that eventually puts the radio to
// sleep after activity ends.
func (m *MAC) bumpIdle() {
	if m.cfg.AlwaysOn {
		return
	}
	m.idleTimer.Start(idleSleepAfter)
}

func (m *MAC) idleCheck() {
	if m.cfg.AlwaysOn || !m.radio.On() {
		return
	}
	if m.awakeForTx || m.cur != nil ||
		m.radio.Transmitting() || m.radio.State() == radio.StateReceiving ||
		m.radio.CCABusy() || m.hasPendingAcks() {
		m.idleTimer.Start(idleCheckEvery)
		return
	}
	m.sleep()
}

func (m *MAC) hasPendingAcks() bool { return m.elections > 0 }

func (m *MAC) maybeSleepSoon() {
	if m.cfg.AlwaysOn || !m.radio.On() || m.awakeForTx || m.cur != nil {
		return
	}
	if !m.idleTimer.Pending() {
		m.idleTimer.Start(idleCheckEvery)
	}
}

func (m *MAC) sleep() {
	if m.radio.Transmitting() {
		m.idleTimer.Start(idleCheckEvery)
		return
	}
	for _, ev := range m.probeEvents {
		ev.Cancel()
	}
	m.probeEvents = m.probeEvents[:0]
	m.idleTimer.Stop()
	m.radio.SetOn(false)
}
