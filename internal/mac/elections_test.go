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
	for _, st := range m.rx {
		if st.ackPending.Pending() {
			n++
		}
	}
	return n
}

// checkRxTable asserts the rx table's bookkeeping: the election counter
// equals a walk of the table, an entry holds its received frame exactly
// while its election is pending, and no state sits both in the table and
// on the free list (or twice on the free list).
func checkRxTable(t *testing.T, m *MAC) {
	t.Helper()
	if got, want := m.elections, pendingElections(m); got != want {
		t.Fatalf("t=%v node %d (dead %v): election counter %d, rx table has %d pending",
			m.eng.Now(), m.ID(), m.Dead(), got, want)
	}
	free := make(map[*rxState]bool, len(m.freeRx))
	for _, st := range m.freeRx {
		if free[st] {
			t.Fatalf("t=%v node %d: a state is on the free list twice", m.eng.Now(), m.ID())
		}
		free[st] = true
	}
	for k, st := range m.rx {
		if free[st] {
			t.Fatalf("t=%v node %d: entry %#x is also on the free list", m.eng.Now(), m.ID(), uint64(k))
		}
		if pending := st.ackPending.Pending(); pending != (st.frame != nil) {
			t.Fatalf("t=%v node %d: entry %#x has election pending %v but holds frame %v",
				m.eng.Now(), m.ID(), uint64(k), pending, st.frame != nil)
		}
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
// (checkRxTable: the election counter behind hasPendingAcks, frames held
// only during an election, the free list) after every event of the
// anycast field. Node 2 is killed with an election pending and later
// rebooted as a fresh MAC on the same radio; the dead instance is
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

// TestRxTableBounded runs the anycast field for ten simulated minutes and
// asserts that each MAC's rx table plus its free list of states stays
// within the traffic of the dedup window. An entry outlives its last copy
// by at most two windows (one to age, one until the next sweep), and a
// packet's copies span at most one LPL stream, so a table holds the
// packets its (nodes−1) neighbours started in the last
// 2·dedupWindow + WakeInterval + streamSlack: at one packet per
// sendEvery each, 5·⌈2.624 s / 0.5 s⌉ = 30. The free list only holds
// states the table once held, so the sum is bounded the same way. The
// measured peak is 20; a table swept only once it holds 256 entries
// climbs to 256 here.
func TestRxTableBounded(t *testing.T) {
	const nodes = 6
	eng, macs, _ := anycastField(t, nodes)
	cfg := DefaultConfig()
	span := 2*cfg.dedupWindow() + cfg.WakeInterval + cfg.streamSlack()
	bound := (nodes - 1) * int((span+sendEvery-1)/sendEvery)
	peak := 0
	for eng.Now() < 10*time.Minute {
		before := eng.Processed()
		_ = eng.RunAll(1)
		if eng.Processed() == before {
			t.Fatal("the field ran out of events")
		}
		for _, m := range macs {
			peak = max(peak, len(m.rx)+len(m.freeRx))
		}
	}
	t.Logf("peak rx table + free list: %d states (bound %d)", peak, bound)
	if peak > bound {
		t.Fatalf("a MAC held %d rx states, want at most %d", peak, bound)
	}
}
