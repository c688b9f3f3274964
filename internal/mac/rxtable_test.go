package mac

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/topology"
)

// dedupWindow is the MAC's dedup window at the default wake interval,
// which the reference model and the schedules below run at.
var dedupWindow = DefaultConfig().dedupWindow()

// keyPayload names a test frame's (src, seq) in the MAC's telemetry
// events, which otherwise carry only the frame's Seq.
type keyPayload struct {
	src radio.NodeID
	seq uint32
}

func (p keyPayload) TelemetryIDs() (op, uid uint32) { return uint32(p.src), p.seq }

func keyedFrame(src radio.NodeID, seq uint32, size int) *radio.Frame {
	return &radio.Frame{Kind: radio.FrameData, Src: src, Dst: radio.BroadcastID, Seq: seq,
		Size: size, Payload: keyPayload{src, seq}}
}

// rxClass is the verdict on a packet, a fixed function of its key: a
// fifth ignored, three tenths delivered as broadcasts, the rest anycast
// in priority slots -1..8, so the clamp is taken at both ends.
func rxClass(f *radio.Frame) Classification {
	h := uint64(packetKey(f.Src, f.Seq)) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	switch v := h % 10; {
	case v < 2:
		return Classification{Decision: Ignore}
	case v < 5:
		return Classification{Decision: Deliver}
	}
	return Classification{Decision: AckAndDeliver, Prio: int(h>>8%10) - 1}
}

// refRx is a reference model of the rx table before its states were
// pooled: a map of fresh entries, each keeping its frame, swept only once
// it holds 256. It mirrors onData, onAck and runElection for a MAC that
// sends nothing. It reads the radio's predicates at the instants the MAC
// reads them (its election events are scheduled just before the MAC's,
// so they fire just before them), draws the election jitter from a copy
// of the MAC's random stream, and logs each outcome in the format of the
// MAC's observers.
type refRx struct {
	eng *sim.Engine
	r   *radio.Radio
	cfg Config
	rng *rand.Rand
	rx  map[rxKey]*refEntry
	log []string
	// Paths taken, so the test can require each to be exercised.
	boundary, reused, reacks, peerSuppressed, yields, sweeps int
}

type refEntry struct {
	at                    time.Duration
	class                 Classification
	delivered, suppressed bool
	election              sim.EventRef
	frame                 *radio.Frame
}

// logAt appends one outcome, stamped with the virtual time.
func logAt(log *[]string, now time.Duration, format string, args ...any) {
	*log = append(*log, fmt.Sprintf("%v ", now)+fmt.Sprintf(format, args...))
}

func (m *refRx) logf(format string, args ...any) { logAt(&m.log, m.eng.Now(), format, args...) }

func (m *refRx) onFrame(f *radio.Frame) {
	if len(m.rx) >= 256 {
		m.sweeps++
		cutoff := m.eng.Now() - dedupWindow
		for k, e := range m.rx {
			if e.at < cutoff && !e.election.Pending() {
				delete(m.rx, k)
			}
		}
	}
	switch f.Kind {
	case radio.FrameAck:
		if e, ok := m.rx[packetKey(f.AckSrc, f.AckSeq)]; ok && e.election.Pending() {
			e.election.Cancel()
			e.suppressed = true
			m.peerSuppressed++
			m.logf("suppress %d/%d by %d", e.frame.Src, e.frame.Seq, f.Src)
		}
	case radio.FrameData:
		m.onData(f)
	}
}

func (m *refRx) onData(f *radio.Frame) {
	now := m.eng.Now()
	key := packetKey(f.Src, f.Seq)
	e, seen := m.rx[key]
	if seen && !e.election.Pending() {
		switch age := now - e.at; {
		case age == dedupWindow:
			m.boundary++
		case age > dedupWindow:
			m.reused++
			delete(m.rx, key)
			seen = false
		}
	}
	if seen {
		e.at = now
		if !e.suppressed && e.class.Decision == AckAndDeliver && e.delivered && !m.r.CCABusy() {
			if m.ack(f) {
				m.reacks++
			}
		}
		return
	}
	class := rxClass(f)
	m.logf("classify %d/%d", f.Src, f.Seq)
	e = &refEntry{at: now, class: class, frame: f}
	m.rx[key] = e
	switch class.Decision {
	case Deliver:
		e.delivered = true
		m.logf("deliver %d/%d", f.Src, f.Seq)
	case AckAndDeliver:
		prio := min(max(class.Prio, 0), maxAckSlots-1)
		jitter := time.Duration(m.rng.Int64N(int64(ackSlot / 3)))
		delay := ackTurnaround + time.Duration(prio)*ackSlot + jitter
		e.election = m.eng.Schedule(delay, func() { m.elect(e) })
	}
}

func (m *refRx) elect(e *refEntry) {
	f := e.frame
	if m.r.CCABusy() || m.r.State() == radio.StateReceiving {
		e.suppressed = true
		m.yields++
		m.logf("suppress %d/%d by %d", f.Src, f.Seq, radio.BroadcastID)
		return
	}
	m.ack(f)
	e.delivered = true
	m.logf("deliver %d/%d", f.Src, f.Seq)
}

// ack logs the ack sendAck transmits, if the radio lets it.
func (m *refRx) ack(f *radio.Frame) bool {
	if !m.r.On() || m.r.Transmitting() {
		return false
	}
	m.logf("ack %d/%d", f.Src, f.Seq)
	return true
}

func (m *refRx) kill() {
	for _, e := range m.rx {
		e.election.Cancel()
	}
	m.rx = make(map[rxKey]*refEntry)
}

// teeHandler hands every frame to the reference model, then to the MAC.
type teeHandler struct {
	ref *refRx
	mac *MAC
}

func (h *teeHandler) OnFrame(f *radio.Frame) { h.ref.onFrame(f); h.mac.OnFrame(f) }
func (h *teeHandler) OnTxDone()              { h.mac.OnTxDone() }

// logUpper classifies with rxClass and logs what the MAC asks of it.
type logUpper struct {
	eng *sim.Engine
	log *[]string
}

func (u logUpper) logf(format string, args ...any) { logAt(u.log, u.eng.Now(), format, args...) }

func (u logUpper) Classify(f *radio.Frame) Classification {
	u.logf("classify %d/%d", f.Src, f.Seq)
	return rxClass(f)
}

func (u logUpper) Deliver(f *radio.Frame)                      { u.logf("deliver %d/%d", f.Src, f.Seq) }
func (u logUpper) OnSendDone(*radio.Frame, radio.NodeID, bool) {}
func (u logUpper) Consume(ev telemetry.Event) {
	if ev.Kind == telemetry.KindMacSuppressed {
		u.logf("suppress %d/%d by %d", ev.Op, ev.UID, ev.Src)
	}
}

type nopHandler struct{}

func (nopHandler) OnFrame(*radio.Frame) {}
func (nopHandler) OnTxDone()            {}

// TestRxTableMatchesMapSemantics drives one always-on MAC (node 1) with a
// seeded schedule and checks every Classify, Deliver, ack and suppression
// against refRx, the table as a map swept at 256 entries. The schedule
// feeds frames straight to the MAC: new keys from 40 sources, some of
// which restart their sequence numbers; duplicates of recent frames;
// probes repeated exactly one dedupWindow later (still a duplicate) and
// one nanosecond past it (a new packet); peers' acks, half of them for
// the newest frame, so they land during its election; and node 0 puts
// keyed frames on the air, which the MAC receives and which make
// elections yield. Mid-run the MAC is killed with an election pending and
// a fresh MAC boots on the same radio.
func TestRxTableMatchesMapSemantics(t *testing.T) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AlwaysOn = true
	r0, r1 := med.Radio(0), med.Radio(1)
	r0.SetHandler(nopHandler{})
	r0.SetOn(true)

	var got []string
	up := logUpper{eng, &got}
	bus := telemetry.NewBus(eng.Now)
	bus.Subscribe(up, telemetry.LayerMAC)
	med.SetTraceFn(func(e radio.TraceEvent) {
		if e.Kind == radio.TraceTxStart && e.Node == 1 && e.Frame.Kind == radio.FrameAck {
			up.logf("ack %d/%d", e.Frame.AckSrc, e.Frame.AckSeq)
		}
	})
	ref := &refRx{eng: eng, r: r1, cfg: cfg, rx: make(map[rxKey]*refEntry)}
	tee := &teeHandler{ref: ref}
	boot := func(stream uint64) {
		tee.mac = New(eng, r1, cfg, sim.DeriveRNG(7, stream), up)
		ref.rng = sim.DeriveRNG(7, stream)
		tee.mac.SetTelemetry(bus)
		r1.SetHandler(tee)
		tee.mac.Start()
	}
	boot(1)

	const horizon, sources = 60 * time.Second, 40
	rng := rand.New(rand.NewPCG(26, 1))
	var (
		seqs        [sources]uint32
		recent      []*radio.Frame
		jamSeq      uint32
		dead        bool
		killed      bool
		killPending int
	)
	deliver := func(f *radio.Frame) {
		if !dead {
			tee.OnFrame(f)
		}
	}
	kill := func() {
		killPending = tee.mac.elections
		tee.mac.Kill()
		ref.kill()
		dead = true
		eng.Schedule(300*time.Millisecond, func() { boot(2); dead = false })
	}
	act := func() {
		switch p := rng.Float64(); {
		case p < 0.35:
			i := rng.IntN(sources)
			if rng.IntN(50) == 0 {
				seqs[i] = 0 // the source rebooted
			}
			seqs[i]++
			f := keyedFrame(radio.NodeID(2+i), seqs[i], 30)
			deliver(f)
			switch q := rng.IntN(10); {
			case q == 0:
				eng.Schedule(dedupWindow, func() { deliver(f) })
				eng.Schedule(2*dedupWindow+1, func() { deliver(f) })
			case q == 1:
				eng.Schedule(dedupWindow+1, func() { deliver(f) })
			default:
				recent = append(recent, f)
				if len(recent) > 32 {
					recent = recent[1:]
				}
			}
			if !killed && eng.Now() > horizon*6/10 && tee.mac.elections > 0 {
				killed = true
				eng.Schedule(0, kill)
			}
		case p < 0.60 && len(recent) > 0:
			deliver(recent[rng.IntN(len(recent))])
		case p < 0.75 && len(recent) > 0:
			f := recent[len(recent)-1]
			if rng.IntN(2) == 0 {
				f = recent[rng.IntN(len(recent))]
			}
			deliver(&radio.Frame{Kind: radio.FrameAck, Src: radio.NodeID(2 + rng.IntN(sources)),
				Dst: f.Src, AckSrc: f.Src, AckSeq: f.Seq, Size: 5})
		case p < 0.85 && !r0.Transmitting():
			jamSeq++
			if err := r0.Transmit(keyedFrame(0, jamSeq, 20+rng.IntN(100)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	var step func()
	step = func() {
		act()
		gap := 50*time.Microsecond + time.Duration(rng.Int64N(int64(3*time.Millisecond)))
		if rng.IntN(10) < 3 {
			gap = 3*time.Millisecond + time.Duration(rng.Int64N(int64(100*time.Millisecond)))
		}
		if eng.Now() < horizon {
			eng.Schedule(gap, step)
		}
	}
	eng.Schedule(0, step)
	if err := eng.Run(horizon + 3*dedupWindow); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < min(len(got), len(ref.log)); i++ {
		if got[i] != ref.log[i] {
			lo := max(0, i-3)
			t.Fatalf("outcome %d differs: MAC %q, reference %q\nMAC:       %q\nreference: %q",
				i, got[i], ref.log[i], got[lo:min(i+3, len(got))], ref.log[lo:min(i+3, len(ref.log))])
		}
	}
	if len(got) != len(ref.log) {
		t.Fatalf("MAC logged %d outcomes, reference %d", len(got), len(ref.log))
	}
	t.Logf("%d outcomes: %d boundary duplicates, %d reused keys, %d re-acks, %d peer-ack suppressions, %d yields, %d reference sweeps, %d elections pending at the kill",
		len(got), ref.boundary, ref.reused, ref.reacks, ref.peerSuppressed, ref.yields, ref.sweeps, killPending)
	for _, c := range []struct {
		name string
		n    int
	}{{"boundary duplicates", ref.boundary}, {"reused keys", ref.reused}, {"re-acks", ref.reacks},
		{"peer-ack suppressions", ref.peerSuppressed}, {"election yields", ref.yields},
		{"reference sweeps", ref.sweeps}, {"elections pending at the kill", killPending}} {
		if c.n == 0 {
			t.Errorf("the schedule exercised no %s", c.name)
		}
	}
}

// countUpper is an Upper that allocates nothing: it hands out a set
// verdict and counts deliveries.
type countUpper struct {
	class     Classification
	delivered int
}

func (u *countUpper) Classify(*radio.Frame) Classification        { return u.class }
func (u *countUpper) Deliver(*radio.Frame)                        { u.delivered++ }
func (u *countUpper) OnSendDone(*radio.Frame, radio.NodeID, bool) {}

// TestMACReceiveAllocFree pins the receive path's alloc contract: once
// the rx table, the election pool and the engine's event pool are warm,
// OnFrame allocates nothing for a new-key broadcast, a duplicate, a new
// anycast frame that starts an election together with the peer's ack
// that cancels it, or an ack for a packet with no election pending. Each
// step first advances the clock 10 ms, so the table keeps turning over
// and the measured steps span sweeps. The measured elections end
// suppressed; the ack a won election sends is TestSendAckAllocFree's.
func TestMACReceiveAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AlwaysOn = true
	up := &countUpper{}
	m := New(eng, med.Radio(1), cfg, sim.DeriveRNG(7, 1), up)
	m.Start()

	bcast := keyedFrame(0, 0, 30)
	anycast := keyedFrame(2, 0, 30)
	peerAck := &radio.Frame{Kind: radio.FrameAck, Src: 3, Size: 5}
	advance := func() {
		if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		step func()
	}{
		{"new-key broadcast", func() {
			advance()
			up.class = Classification{Decision: Deliver}
			bcast.Seq++
			m.OnFrame(bcast)
		}},
		{"duplicate", func() {
			advance()
			m.OnFrame(bcast)
		}},
		{"anycast election and peer ack", func() {
			advance()
			up.class = Classification{Decision: AckAndDeliver, Prio: 3}
			anycast.Seq++
			m.OnFrame(anycast)
			if m.elections != 1 {
				t.Fatalf("%d elections pending after a new anycast frame, want 1", m.elections)
			}
			peerAck.AckSrc, peerAck.AckSeq = anycast.Src, anycast.Seq
			m.OnFrame(peerAck)
		}},
		{"ack without election", func() {
			advance()
			m.OnFrame(peerAck)
		}},
	}
	for _, c := range cases {
		// Warm up over four dedup windows.
		for i := 0; i < 400; i++ {
			c.step()
		}
		if allocs := testing.AllocsPerRun(300, c.step); allocs != 0 {
			t.Errorf("%s: OnFrame allocates %v per call, want 0", c.name, allocs)
		}
	}
	if s := m.Stats(); s.Suppressed == 0 || s.AcksSent != 0 || up.delivered == 0 {
		t.Fatalf("stats %+v with %d deliveries: want suppressions and deliveries, no acks", s, up.delivered)
	}
}

// TestSendAckAllocFree pins the ack path's alloc contract: a MAC that has
// sent one ack refills the same frame for every later one, so sending an
// ack and letting it leave the air allocates nothing.
func TestSendAckAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AlwaysOn = true
	m := New(eng, med.Radio(1), cfg, sim.DeriveRNG(7, 1), &countUpper{})
	m.Start()
	r0 := med.Radio(0)
	r0.SetHandler(nopHandler{})
	r0.SetOn(true)
	data := keyedFrame(0, 0, 30)
	step := func() {
		data.Seq++
		m.sendAck(data)
		if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Errorf("sendAck allocates %v per ack, want 0", allocs)
	}
	if n := m.Stats().AcksSent; n != 50+301 {
		t.Fatalf("%d acks sent, want %d", n, 50+301)
	}
}

// TestRxTableMatchesGoMap drives a bare rxTable and a Go map through
// seeded sequences of adds, updates, lookups, deletes, explicit sweeps
// and resolved elections, and after every step checks that the table
// holds exactly the map's entries, each found from its home slot, at a
// load of at most three quarters. An add at the load limit sweeps
// before it grows; the map is swept with the same cutoff there. Half the
// keys share home slot 0 or one of the last two slots at every table
// size up to 64, so their probe runs collide and wrap around the end of
// the array, and a backward shift must carry them across it; key 0
// (node 0's packet with Seq 0) is among them.
func TestRxTableMatchesGoMap(t *testing.T) {
	keys := []rxKey{0}
	wide := rxTable{shift: 64 - 6}
	for k := rxKey(1); len(keys) < 32; k++ {
		if h := wide.home(k + 1); h == 0 || h >= 62 {
			keys = append(keys, k)
		}
	}
	rng := rand.New(rand.NewPCG(34, 1))
	for len(keys) < 64 {
		keys = append(keys, packetKey(radio.NodeID(rng.IntN(4)), uint32(rng.IntN(1000))))
	}
	const unit = time.Millisecond
	var wrappedDeletes, displaced, sweeps, grows int
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		var tab rxTable
		ref := map[rxKey]rxEntry{}
		var now time.Duration
		check := func(step int, op string) {
			t.Helper()
			if tab.n != len(ref) || 4*tab.n > 3*len(tab.slots) {
				t.Fatalf("seed %d step %d (%s): table counts %d entries in %d slots, map holds %d",
					seed, step, op, tab.n, len(tab.slots), len(ref))
			}
			occupied := 0
			for i, e := range tab.slots {
				if e.k == 0 {
					continue
				}
				occupied++
				if want, ok := ref[e.k-1]; !ok || want != e {
					t.Fatalf("seed %d step %d (%s): slot %d holds %+v, map has %+v (%v)", seed, step, op, i, e, want, ok)
				}
				if tab.home(e.k) != i {
					displaced++
				}
			}
			if occupied != tab.n {
				t.Fatalf("seed %d step %d (%s): %d occupied slots, count %d", seed, step, op, occupied, tab.n)
			}
			for k, want := range ref {
				if i := tab.find(k); i < 0 || tab.slots[i] != want {
					t.Fatalf("seed %d step %d (%s): key %#x lost (slot %d)", seed, step, op, uint64(k), i)
				}
			}
		}
		sweepRef := func(cutoff time.Duration) {
			for k, e := range ref {
				if e.at < cutoff && e.elect == 0 {
					delete(ref, k)
				}
			}
		}
		for step := 0; step < 3000; step++ {
			now += time.Duration(rng.IntN(4)) * unit
			key := keys[rng.IntN(len(keys))]
			i := tab.find(key)
			if _, ok := ref[key]; ok != (i >= 0) {
				t.Fatalf("seed %d step %d: find(%#x) = %d, map has it %v", seed, step, uint64(key), i, ok)
			}
			op := ""
			switch p := rng.IntN(100); {
			case p < 45 && i >= 0:
				op = "update"
				tab.slots[i].at, tab.slots[i].delivered = now, !tab.slots[i].delivered
			case p < 45:
				op = "add"
				cutoff := now - time.Duration(rng.IntN(40))*unit
				if tab.n >= len(tab.slots)*3/4 {
					sweepRef(cutoff)
					sweeps++
				}
				size := len(tab.slots)
				i = tab.add(key, cutoff)
				if len(tab.slots) != size {
					grows++
				}
				tab.slots[i].at, tab.slots[i].decision = now, Decision(1+rng.IntN(3))
				if rng.IntN(4) == 0 {
					tab.slots[i].elect = uint16(1 + rng.IntN(8))
				}
			case p < 70 && i >= 0:
				op = "delete"
				if tab.slots[0].k != 0 && tab.slots[len(tab.slots)-1].k != 0 {
					wrappedDeletes++
				}
				tab.deleteAt(i)
				delete(ref, key)
				check(step, op)
				if tab.find(key) >= 0 {
					t.Fatalf("seed %d step %d: deleted key %#x still found", seed, step, uint64(key))
				}
				continue
			case p < 80:
				op = "sweep"
				cutoff := now - time.Duration(rng.IntN(40))*unit
				tab.sweep(cutoff)
				sweepRef(cutoff)
			case p < 90 && i >= 0:
				op = "resolve"
				tab.slots[i].elect = 0
			}
			if i >= 0 && op != "sweep" {
				ref[key] = tab.slots[i]
			}
			check(step, op)
		}
	}
	t.Logf("%d deletes in wrapped runs, %d displaced entries checked, %d sweeps before growth, %d growths",
		wrappedDeletes, displaced, sweeps, grows)
	if wrappedDeletes < 1000 || displaced < 10000 || sweeps < 50 || grows < 40 {
		t.Fatal("the sequences did not exercise wrapped runs, collisions, sweeps and growth enough")
	}
}
