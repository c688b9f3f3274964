package mac

import (
	"testing"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// pendingElections walks m.rx for the entries whose ack election is
// pending: what hasPendingAcks used to compute.
func pendingElections(m *MAC) int {
	n := 0
	for _, e := range m.rx.slots {
		if e.k != 0 && e.elect != 0 {
			n++
		}
	}
	return n
}

// checkRxTable asserts the rx table's bookkeeping: the election counter
// equals a walk of the table and the number of pool records in use; an
// entry with an election pending names a record of its own key, which
// holds the received frame and a pending event, and no two entries share
// a record; a free record holds nothing. It also checks the table:
// its count matches its occupied slots, every entry is found from its
// home slot, and the load stays at or below three quarters.
func checkRxTable(t *testing.T, m *MAC) {
	t.Helper()
	busy := 0
	for _, el := range m.pool {
		if el.frame != nil {
			busy++
		} else if *el != (election{}) {
			t.Fatalf("t=%v node %d: a free election record holds %+v", m.eng.Now(), m.ID(), *el)
		}
	}
	if got, want := m.elections, pendingElections(m); got != want || busy != want {
		t.Fatalf("t=%v node %d (dead %v): election counter %d, rx table has %d pending, pool %d in use",
			m.eng.Now(), m.ID(), m.Dead(), got, want, busy)
	}
	owner := make(map[uint16]rxKey)
	occupied := 0
	for i, e := range m.rx.slots {
		if e.k == 0 {
			continue
		}
		occupied++
		key := e.k - 1
		if at := m.rx.find(key); at != i {
			t.Fatalf("t=%v node %d: entry %#x sits in slot %d, found at %d", m.eng.Now(), m.ID(), uint64(key), i, at)
		}
		if e.elect == 0 {
			continue
		}
		if prev, ok := owner[e.elect]; ok {
			t.Fatalf("t=%v node %d: entries %#x and %#x share election record %d",
				m.eng.Now(), m.ID(), uint64(prev), uint64(key), e.elect)
		}
		owner[e.elect] = key
		el := m.pool[e.elect-1]
		if el.key != key || el.frame == nil || !el.ev.Pending() {
			t.Fatalf("t=%v node %d: entry %#x names election record %d for %#x (frame %v, pending %v)",
				m.eng.Now(), m.ID(), uint64(key), e.elect, uint64(el.key), el.frame != nil, el.ev.Pending())
		}
	}
	if occupied != m.rx.n || 4*m.rx.n > 3*len(m.rx.slots) {
		t.Fatalf("t=%v node %d: table counts %d entries, holds %d in %d slots",
			m.eng.Now(), m.ID(), m.rx.n, occupied, len(m.rx.slots))
	}
}

// anycastField is a duty-cycled line of nodes 2 m apart carrying anycast
// traffic: each node accepts every frame in a priority slot of its own id
// mod 2, so neighbours with different slots suppress each other on a
// peer's ack and neighbours sharing one yield to a busy channel, and
// every node sends an anycast frame every sendEvery, staggered. A node
// replaced in macs (a reboot) sends from its new instance.
func anycastField(t *testing.T, nodes int) (*sim.Engine, []*MAC, []*testUpper) {
	eng, macs, uppers := buildNet(t, nodes, 2, DefaultConfig())
	for i := range macs {
		uppers[i].classify = anycastIn(radio.NodeID(i))
		var send func()
		send = func() {
			if !macs[i].Dead() {
				_ = macs[i].Send(&radio.Frame{Kind: radio.FrameData, Dst: radio.BroadcastID, Size: 30})
			}
			eng.Schedule(sendEvery, send)
		}
		eng.Schedule(time.Duration(i)*200*time.Millisecond, send)
	}
	return eng, macs, uppers
}

const sendEvery = 500 * time.Millisecond

// anycastIn accepts every frame in node id's priority slot.
func anycastIn(id radio.NodeID) func(*radio.Frame) Classification {
	return func(*radio.Frame) Classification {
		return Classification{Decision: AckAndDeliver, Prio: int(id) % 2}
	}
}

// TestElectionCountMatchesRxTable checks the rx table's bookkeeping
// (checkRxTable: the election counter behind hasPendingAcks, the
// election records and their frames, the probe table) after every event
// of the anycast field. Node 2 is killed with an election pending and
// later rebooted as a fresh MAC on the same radio; the dead instance is
// checked too.
func TestElectionCountMatchesRxTable(t *testing.T) {
	const nodes, victim = 6, 2
	eng, macs, uppers := anycastField(t, nodes)
	bus := telemetry.NewBus(eng.Now)
	events := telemetry.NewCollector()
	bus.Subscribe(events, telemetry.LayerMAC)
	for _, m := range macs {
		m.SetTelemetry(bus)
	}

	// Kill the victim right after it joins an election, once the field
	// has run for a while: the kill event runs after onData scheduled it.
	dead := macs[victim]
	killedPending := 0
	uppers[victim].classify = func(f *radio.Frame) Classification {
		if eng.Now() >= 5*time.Second && !dead.Dead() {
			eng.Schedule(0, func() {
				if !dead.Dead() {
					killedPending = dead.elections
					dead.Kill()
				}
			})
		}
		return anycastIn(victim)(f)
	}
	eng.Schedule(8*time.Second, func() {
		m := New(eng, dead.radio, DefaultConfig(), sim.DeriveRNG(7, 100), uppers[victim])
		m.SetTelemetry(bus)
		uppers[victim].classify = anycastIn(victim)
		macs[victim] = m
		m.Start()
	})

	const horizon = 60 * time.Second
	steps := 0
	for eng.Now() < horizon {
		before := eng.Processed()
		// RunAll stops at its one-event cap with an error naming the cap,
		// which here only means more events are queued.
		_ = eng.RunAll(1)
		if eng.Processed() == before {
			t.Fatal("the field ran out of events")
		}
		for _, m := range macs {
			checkRxTable(t, m)
		}
		checkRxTable(t, dead)
		steps++
	}

	var peerAck, yield int
	for _, ev := range events.Events() {
		if ev.Kind != telemetry.KindMacSuppressed {
			continue
		}
		switch ev.Note {
		case "peer acked first":
			peerAck++
		case "election yield":
			yield++
		}
	}
	t.Logf("%d events: %d peer-ack suppressions, %d yields, %d elections pending at the kill, rebooted node sent %d acks",
		steps, peerAck, yield, killedPending, macs[victim].Stats().AcksSent)
	if peerAck == 0 || yield == 0 {
		t.Fatalf("run saw %d peer-ack suppressions and %d election yields, want both", peerAck, yield)
	}
	if !dead.Dead() || killedPending == 0 || dead.elections != 0 {
		t.Fatalf("victim dead %v with %d elections pending at the kill, %d after", dead.Dead(), killedPending, dead.elections)
	}
	if macs[victim] == dead || macs[victim].Stats().AcksSent == 0 {
		t.Fatal("the rebooted node never won an election")
	}
}

// TestRxTableBounded runs the anycast field for ten simulated minutes
// and holds each MAC's rx table to about one window of traffic. An entry
// the sweep may not drop was heard within the last dedupWindow (or has
// its election pending, a few milliseconds), and a packet's copies span
// at most one LPL stream, so such live entries are the packets the
// (nodes−1) neighbours started in the last
// dedupWindow + WakeInterval + streamSlack: at one per sendEvery each,
// 5·⌈1.6 s / 0.5 s⌉ = 20. A table at its load limit of three quarters
// sweeps first and doubles only if at least three quarters of the limit
// is live, so it never grows past the first size at which that exceeds
// the live bound: 64 slots, 48 entries. The election pool only holds elections
// pending at once. The sweep and the growth rule are what hold this: a
// table that grew instead of sweeping would keep every packet of the
// run.
func TestRxTableBounded(t *testing.T) {
	const nodes = 6
	eng, macs, _ := anycastField(t, nodes)
	cfg := DefaultConfig()
	span := cfg.dedupWindow() + cfg.WakeInterval + cfg.streamSlack()
	liveBound := (nodes - 1) * int((span+sendEvery-1)/sendEvery)
	slotBound := minRxSlots
	for liveBound >= slotBound*3/4*3/4 {
		slotBound *= 2
	}
	var peakLive, peakHeld, peakSlots, peakPool int
	for eng.Now() < 10*time.Minute {
		before := eng.Processed()
		_ = eng.RunAll(1)
		if eng.Processed() == before {
			t.Fatal("the field ran out of events")
		}
		cutoff := eng.Now() - cfg.dedupWindow()
		for _, m := range macs {
			live := 0
			for _, e := range m.rx.slots {
				if e.k != 0 && (e.at >= cutoff || e.elect != 0) {
					live++
				}
			}
			peakLive = max(peakLive, live)
			peakHeld = max(peakHeld, m.rx.n+len(m.pool))
			peakSlots = max(peakSlots, len(m.rx.slots))
			peakPool = max(peakPool, len(m.pool))
		}
	}
	t.Logf("peak: %d live entries (bound %d), %d slots (bound %d), table plus election pool %d (pool %d)",
		peakLive, liveBound, peakSlots, slotBound, peakHeld, peakPool)
	if peakLive > liveBound {
		t.Fatalf("a MAC held %d live rx entries, want at most %d", peakLive, liveBound)
	}
	if peakSlots > slotBound {
		t.Fatalf("a MAC's rx table grew to %d slots, want at most %d", peakSlots, slotBound)
	}
	if heldBound := slotBound*3/4 + nodes - 1; peakHeld > heldBound {
		t.Fatalf("a MAC held %d rx entries and election records, want at most %d", peakHeld, heldBound)
	}
}
