package mac

import (
	"testing"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// testUpper is a scriptable protocol layer.
type testUpper struct {
	classify  func(f *radio.Frame) Classification
	delivered []*radio.Frame
	done      []sendResult
}

type sendResult struct {
	frame *radio.Frame
	acker radio.NodeID
	ok    bool
}

func (u *testUpper) Classify(f *radio.Frame) Classification {
	if u.classify == nil {
		return Classification{Decision: Ignore}
	}
	return u.classify(f)
}

func (u *testUpper) Deliver(f *radio.Frame) { u.delivered = append(u.delivered, f) }

func (u *testUpper) OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool) {
	u.done = append(u.done, sendResult{frame: f, acker: acker, ok: ok})
}

// acceptUnicast accepts frames addressed to id.
func acceptUnicast(id radio.NodeID) func(f *radio.Frame) Classification {
	return func(f *radio.Frame) Classification {
		if f.Dst == id {
			return Classification{Decision: AckAndDeliver}
		}
		return Classification{Decision: Ignore}
	}
}

// noAckPayload marks broadcast frames that expect no acknowledgement.
type noAckPayload struct{ v int }

func (noAckPayload) NoAck() bool { return true }

// buildNet creates n nodes in a line, spacing metres apart, quiet noise.
func buildNet(t *testing.T, n int, spacing float64, cfg Config, alwaysOn ...radio.NodeID) (*sim.Engine, []*MAC, []*testUpper) {
	t.Helper()
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(n, spacing), nil, params, 42)
	if err != nil {
		t.Fatal(err)
	}
	on := make(map[radio.NodeID]bool, len(alwaysOn))
	for _, id := range alwaysOn {
		on[id] = true
	}
	macs := make([]*MAC, n)
	uppers := make([]*testUpper, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.AlwaysOn = on[radio.NodeID(i)]
		uppers[i] = &testUpper{}
		macs[i] = New(eng, med.Radio(radio.NodeID(i)), c, sim.DeriveRNG(7, uint64(i)), uppers[i])
		macs[i].Start()
	}
	return eng, macs, uppers
}

func TestUnicastAlwaysOn(t *testing.T) {
	eng, macs, uppers := buildNet(t, 2, 5, DefaultConfig(), 0, 1)
	uppers[1].classify = acceptUnicast(1)
	f := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30, Payload: "hi"}
	if err := macs[0].Send(f); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(uppers[1].delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(uppers[1].delivered))
	}
	if len(uppers[0].done) != 1 || !uppers[0].done[0].ok || uppers[0].done[0].acker != 1 {
		t.Fatalf("send result = %+v, want ack from 1", uppers[0].done)
	}
}

func TestUnicastToDutyCycledReceiver(t *testing.T) {
	eng, macs, uppers := buildNet(t, 2, 5, DefaultConfig(), 0)
	uppers[1].classify = acceptUnicast(1)
	f := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30}
	start := eng.Now()
	if err := macs[0].Send(f); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(uppers[1].delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (LPL streaming must catch the wake-up)", len(uppers[1].delivered))
	}
	res := uppers[0].done
	if len(res) != 1 || !res[0].ok {
		t.Fatalf("send result = %+v, want success", res)
	}
	_ = start
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	cfg := DefaultConfig()
	eng, macs, uppers := buildNet(t, 3, 5, cfg, 0)
	for i := 1; i < 3; i++ {
		uppers[i].classify = func(f *radio.Frame) Classification {
			return Classification{Decision: Deliver}
		}
	}
	f := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     radio.BroadcastID,
		Size:    30,
		Payload: noAckPayload{v: 1},
	}
	if err := macs[0].Send(f); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if len(uppers[i].delivered) != 1 {
			t.Fatalf("node %d delivered %d, want exactly 1 (dedup)", i, len(uppers[i].delivered))
		}
	}
	if len(uppers[0].done) != 1 || !uppers[0].done[0].ok {
		t.Fatalf("broadcast completion = %+v", uppers[0].done)
	}
}

func TestAnycastElectionLowestPrioWins(t *testing.T) {
	// Node 1 transmits; nodes 0 and 2 both qualify, with different prio.
	eng, macs, uppers := buildNet(t, 3, 5, DefaultConfig(), 0, 1, 2)
	uppers[0].classify = func(f *radio.Frame) Classification {
		return Classification{Decision: AckAndDeliver, Prio: 4}
	}
	uppers[2].classify = func(f *radio.Frame) Classification {
		return Classification{Decision: AckAndDeliver, Prio: 1}
	}
	f := &radio.Frame{Kind: radio.FrameData, Dst: radio.BroadcastID, Size: 30}
	if err := macs[1].Send(f); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(uppers[2].delivered) != 1 {
		t.Fatalf("winner delivered %d, want 1", len(uppers[2].delivered))
	}
	if len(uppers[0].delivered) != 0 {
		t.Fatalf("loser delivered %d, want 0 (suppressed)", len(uppers[0].delivered))
	}
	if macs[0].Stats().Suppressed == 0 {
		t.Fatal("suppression not recorded")
	}
	res := uppers[1].done
	if len(res) != 1 || !res[0].ok || res[0].acker != 2 {
		t.Fatalf("send result = %+v, want ack from node 2", res)
	}
}

func TestSendFailsWhenNoReceiver(t *testing.T) {
	cfg := DefaultConfig()
	eng, macs, uppers := buildNet(t, 2, 5, cfg, 0, 1)
	// Receiver ignores everything: stream must exhaust and fail.
	f := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30}
	if err := macs[0].Send(f); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := uppers[0].done
	if len(res) != 1 || res[0].ok {
		t.Fatalf("send result = %+v, want failure", res)
	}
	// The stream must have retransmitted many times within the interval.
	if macs[0].Stats().FrameTx < 10 {
		t.Fatalf("FrameTx = %d, want many LPL repetitions", macs[0].Stats().FrameTx)
	}
}

func TestDeliverOncePerPacket(t *testing.T) {
	eng, macs, uppers := buildNet(t, 2, 5, DefaultConfig(), 0, 1)
	uppers[1].classify = acceptUnicast(1)
	// Two separate packets deliver twice; retransmissions of one deliver once.
	for i := 0; i < 2; i++ {
		f := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30, Payload: i}
		if err := macs[0].Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(uppers[1].delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(uppers[1].delivered))
	}
}

func TestQueueProcessedInOrder(t *testing.T) {
	eng, macs, uppers := buildNet(t, 2, 5, DefaultConfig(), 0, 1)
	uppers[1].classify = acceptUnicast(1)
	for i := 0; i < 5; i++ {
		f := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30, Payload: i}
		if err := macs[0].Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(uppers[1].delivered) != 5 {
		t.Fatalf("delivered %d, want 5", len(uppers[1].delivered))
	}
	for i, f := range uppers[1].delivered {
		if f.Payload.(int) != i {
			t.Fatalf("out of order delivery: %v", uppers[1].delivered)
		}
	}
}

func TestQueueFull(t *testing.T) {
	_, macs, _ := buildNet(t, 2, 5, DefaultConfig(), 0, 1)
	var err error
	for i := 0; i < sendQueueCap+2; i++ {
		err = macs[0].Send(&radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30})
		if err != nil {
			break
		}
	}
	if err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestIdleDutyCycleLow(t *testing.T) {
	eng, macs, _ := buildNet(t, 4, 5, DefaultConfig())
	if err := eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, m := range macs {
		dc := m.DutyCycle()
		if dc > 0.10 {
			t.Fatalf("node %d idle duty cycle %.3f, want < 0.10", i, dc)
		}
		if dc <= 0 {
			t.Fatalf("node %d never woke", i)
		}
	}
}

func TestAlwaysOnDutyCycle(t *testing.T) {
	eng, macs, _ := buildNet(t, 2, 5, DefaultConfig(), 0)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dc := macs[0].DutyCycle(); dc < 0.99 {
		t.Fatalf("always-on duty cycle %.3f, want ~1", dc)
	}
}

func TestStopPowersDown(t *testing.T) {
	eng, macs, _ := buildNet(t, 2, 5, DefaultConfig(), 0)
	eng.Schedule(time.Second, func() { macs[0].Stop() })
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	on := macs[0].radio.OnTime()
	if on > 1100*time.Millisecond {
		t.Fatalf("radio on %v after Stop at 1s", on)
	}
}

// TestBroadcastDeliveredOnceAtEveryWakeInterval: a neighbour that
// sleeps after the first copy of an LPL broadcast stream and wakes for a
// late one must recognise it as a duplicate, whatever the wake interval.
// The dedup window outlasts the stream (WakeInterval + streamSlack) only
// if it scales with the wake interval.
func TestBroadcastDeliveredOnceAtEveryWakeInterval(t *testing.T) {
	const packets = 40
	for _, wi := range []time.Duration{256 * time.Millisecond, 512 * time.Millisecond, 1024 * time.Millisecond} {
		cfg := DefaultConfig()
		cfg.WakeInterval = wi
		eng, macs, uppers := buildNet(t, 2, 5, cfg)
		uppers[1].classify = func(*radio.Frame) Classification { return Classification{Decision: Deliver} }
		// Sends 4.1 wake intervals apart sweep the stream's start across
		// the receiver's wake-up phase.
		every := 4*wi + wi/10
		for i := range packets {
			eng.Schedule(time.Duration(i)*every, func() {
				f := &radio.Frame{Kind: radio.FrameData, Dst: radio.BroadcastID, Size: 30, Payload: noAckPayload{}}
				if err := macs[0].Send(f); err != nil {
					t.Error(err)
				}
			})
		}
		if err := eng.Run(packets * every); err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]int{}
		for _, f := range uppers[1].delivered {
			seen[f.Seq]++
		}
		dups := len(uppers[1].delivered) - len(seen)
		if len(seen) != packets || dups != 0 {
			t.Errorf("wake interval %v: %d of %d broadcasts delivered, %d duplicate deliveries", wi, len(seen), packets, dups)
		}
	}
}

func TestBroadcastLatencyUnderWakeInterval(t *testing.T) {
	// An LPL broadcast must reach a duty-cycled neighbor within roughly one
	// wake interval.
	cfg := DefaultConfig()
	eng, macs, uppers := buildNet(t, 2, 5, cfg, 0)
	uppers[1].classify = func(f *radio.Frame) Classification {
		return Classification{Decision: Deliver}
	}
	var sentAt, gotAt time.Duration
	eng.Schedule(100*time.Millisecond, func() {
		sentAt = eng.Now()
		f := &radio.Frame{
			Kind:    radio.FrameData,
			Dst:     radio.BroadcastID,
			Size:    30,
			Payload: noAckPayload{},
		}
		if err := macs[0].Send(f); err != nil {
			t.Fatal(err)
		}
		// Poll for delivery time.
		var poll func()
		poll = func() {
			if gotAt == 0 && len(uppers[1].delivered) > 0 {
				gotAt = eng.Now()
				return
			}
			if gotAt == 0 {
				eng.Schedule(time.Millisecond, poll)
			}
		}
		poll()
	})
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(uppers[1].delivered) != 1 {
		t.Fatal("broadcast not delivered")
	}
	if lat := gotAt - sentAt; lat > cfg.WakeInterval+cfg.streamSlack() {
		t.Fatalf("broadcast latency %v exceeds one LPL round", lat)
	}
}

func TestSendAssignsSeqAndSrc(t *testing.T) {
	_, macs, _ := buildNet(t, 2, 5, DefaultConfig(), 0, 1)
	f1 := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30}
	f2 := &radio.Frame{Kind: radio.FrameData, Dst: 1, Size: 30}
	if err := macs[0].Send(f1); err != nil {
		t.Fatal(err)
	}
	if err := macs[0].Send(f2); err != nil {
		t.Fatal(err)
	}
	if f1.Src != 0 || f2.Src != 0 {
		t.Fatal("Src not assigned")
	}
	if f1.Seq == f2.Seq {
		t.Fatal("Seq not unique per send")
	}
}
