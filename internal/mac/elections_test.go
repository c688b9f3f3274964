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

// TestElectionCountMatchesRxTable checks the election counter behind
// hasPendingAcks against a walk of the rx table after every event of a
// duty-cycled field carrying anycast traffic. Each node accepts every
// frame in a priority slot of its own id mod 2, so neighbours with
// different slots suppress each other on a peer's ack and neighbours
// sharing one yield to a busy channel. Node 2 is killed with an election
// pending and later rebooted as a fresh MAC on the same radio; the dead
// instance is checked too.
func TestElectionCountMatchesRxTable(t *testing.T) {
	const nodes, victim = 6, 2
	eng, macs, uppers := buildNet(t, nodes, 2, DefaultConfig())
	bus := telemetry.NewBus(eng.Now)
	events := telemetry.NewCollector()
	bus.Subscribe(events, telemetry.LayerMAC)
	anycast := func(id radio.NodeID) func(*radio.Frame) Classification {
		return func(*radio.Frame) Classification {
			return Classification{Decision: AckAndDeliver, Prio: int(id) % 2}
		}
	}
	for i, m := range macs {
		m.SetTelemetry(bus)
		uppers[i].classify = anycast(radio.NodeID(i))
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
		return anycast(victim)(f)
	}
	eng.Schedule(8*time.Second, func() {
		m := New(eng, dead.radio, DefaultConfig(), sim.DeriveRNG(7, 100), uppers[victim])
		m.SetTelemetry(bus)
		uppers[victim].classify = anycast(victim)
		macs[victim] = m
		m.Start()
	})

	// Every node sends an anycast frame every 0.5 s, staggered.
	for i := range macs {
		var send func()
		send = func() {
			if !macs[i].Dead() {
				_ = macs[i].Send(&radio.Frame{Kind: radio.FrameData, Dst: radio.BroadcastID, Size: 30})
			}
			eng.Schedule(500*time.Millisecond, send)
		}
		eng.Schedule(time.Duration(i)*200*time.Millisecond, send)
	}

	const horizon = 60 * time.Second
	check := func(m *MAC) {
		if got, want := m.elections, pendingElections(m); got != want {
			t.Fatalf("t=%v node %d (dead %v): election counter %d, rx table has %d pending",
				eng.Now(), m.ID(), m.Dead(), got, want)
		}
	}
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
			check(m)
		}
		check(dead)
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
