package ctp_test

import (
	"testing"
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// testNet wires radios, MACs, node runtimes and CTP over a deployment.
type testNet struct {
	eng   *sim.Engine
	med   *radio.Medium
	nodes []*node.Node
	macs  []*mac.MAC
	ctps  []*ctp.CTP
}

func buildNet(t *testing.T, dep *topology.Deployment, seed uint64) *testNet {
	t.Helper()
	return buildNetConfig(t, dep, seed, ctp.DefaultConfig())
}

// buildNetConfig is buildNet with every node's CTP configured by cfg.
func buildNetConfig(t *testing.T, dep *topology.Deployment, seed uint64, cfg ctp.Config) *testNet {
	t.Helper()
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, dep, nil, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	n := dep.Len()
	tn := &testNet{
		eng:   eng,
		med:   med,
		nodes: make([]*node.Node, n),
		macs:  make([]*mac.MAC, n),
		ctps:  make([]*ctp.CTP, n),
	}
	for i := 0; i < n; i++ {
		mcfg := mac.DefaultConfig()
		mcfg.AlwaysOn = i == dep.Sink
		tn.macs[i] = mac.New(eng, med.Radio(radio.NodeID(i)), mcfg, sim.DeriveRNG(seed, 100+uint64(i)), nil)
		tn.nodes[i] = node.New(eng, tn.macs[i])
		tn.ctps[i] = ctp.New(tn.nodes[i], cfg, sim.DeriveRNG(seed, 200+uint64(i)), i == dep.Sink)
	}
	for i := 0; i < n; i++ {
		tn.macs[i].Start()
		tn.ctps[i].Start()
	}
	return tn
}

func (tn *testNet) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := tn.eng.Run(tn.eng.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// hopsViaParents walks the parent chain; -1 on loop or detachment.
func (tn *testNet) hopsViaParents(id int, sink int) int {
	cur := id
	for hops := 0; hops <= len(tn.ctps); hops++ {
		if cur == sink {
			return hops
		}
		p := tn.ctps[cur].Parent()
		if p == ctp.NoParent {
			return -1
		}
		cur = int(p)
	}
	return -1
}

func TestLineTreeConverges(t *testing.T) {
	dep := topology.Line(6, 7)
	tn := buildNet(t, dep, 1)
	tn.run(t, 90*time.Second)
	for i := 1; i < 6; i++ {
		if !tn.ctps[i].HasRoute() {
			t.Fatalf("node %d has no route after 90s", i)
		}
		if h := tn.hopsViaParents(i, 0); h != i {
			t.Fatalf("node %d at %d parent-hops, want %d (strict line)", i, h, i)
		}
		if tn.ctps[i].Hops() != uint8(i) {
			t.Errorf("node %d advertises %d hops, want %d", i, tn.ctps[i].Hops(), i)
		}
	}
	// Path ETX must increase along the line.
	for i := 1; i < 6; i++ {
		if tn.ctps[i].PathETX() <= tn.ctps[i-1].PathETX() {
			t.Fatalf("path ETX not increasing at node %d", i)
		}
	}
}

func TestSinkState(t *testing.T) {
	dep := topology.Line(2, 7)
	tn := buildNet(t, dep, 2)
	if tn.ctps[0].PathETX() != 0 || tn.ctps[0].Hops() != 0 {
		t.Fatal("sink must advertise cost 0, hops 0")
	}
	if !tn.ctps[0].IsSink() || !tn.ctps[0].HasRoute() {
		t.Fatal("sink must report route")
	}
	tn.run(t, 30*time.Second)
	if tn.ctps[0].Parent() != ctp.NoParent {
		t.Fatal("sink adopted a parent")
	}
}

func TestDataReachesSink(t *testing.T) {
	dep := topology.Line(5, 7)
	tn := buildNet(t, dep, 3)
	tn.run(t, 90*time.Second)
	var got []struct {
		origin radio.NodeID
		app    any
	}
	tn.ctps[0].SetDeliverFunc(func(origin radio.NodeID, app any) {
		got = append(got, struct {
			origin radio.NodeID
			app    any
		}{origin, app})
	})
	if err := tn.ctps[4].SendToSink("hello"); err != nil {
		t.Fatal(err)
	}
	tn.run(t, 30*time.Second)
	if len(got) != 1 {
		t.Fatalf("sink delivered %d packets, want 1", len(got))
	}
	if got[0].origin != 4 || got[0].app != "hello" {
		t.Fatalf("delivered %+v", got[0])
	}
}

func TestGridTreeMostlyConverges(t *testing.T) {
	dep := topology.Grid("g", 4, 4, 21, 21, false, topology.Point{}, 4)
	tn := buildNet(t, dep, 4)
	tn.run(t, 120*time.Second)
	attached := 0
	for i := range tn.ctps {
		if tn.ctps[i].HasRoute() && tn.hopsViaParents(i, dep.Sink) >= 0 {
			attached++
		}
	}
	if attached < dep.Len()-1 {
		t.Fatalf("%d/%d nodes attached loop-free", attached, dep.Len())
	}
}

func TestDataFromAllNodes(t *testing.T) {
	dep := topology.Grid("g", 3, 3, 14, 14, false, topology.Point{}, 5)
	tn := buildNet(t, dep, 5)
	tn.run(t, 120*time.Second)
	delivered := map[radio.NodeID]bool{}
	tn.ctps[dep.Sink].SetDeliverFunc(func(origin radio.NodeID, app any) {
		delivered[origin] = true
	})
	// Two rounds: CTP is best-effort per packet, so a single loss on a
	// marginal link must not fail the test.
	for round := 0; round < 2; round++ {
		for i := range tn.ctps {
			if i == dep.Sink || delivered[radio.NodeID(i)] {
				continue
			}
			if err := tn.ctps[i].SendToSink(i); err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
		}
		tn.run(t, 60*time.Second)
	}
	if len(delivered) < dep.Len()-1 {
		t.Fatalf("sink heard from %d/%d nodes", len(delivered), dep.Len()-1)
	}
}

func TestParentChangeEventFires(t *testing.T) {
	dep := topology.Line(3, 7)
	tn := buildNet(t, dep, 6)
	events := 0
	firstOld := ctp.NoParent
	tn.ctps[2].OnParentChange(func(old, new radio.NodeID) {
		if events == 0 {
			firstOld = old
		}
		events++
	})
	tn.run(t, 60*time.Second)
	if events == 0 {
		t.Fatal("no parent-change (routing found) event")
	}
	if firstOld != ctp.NoParent {
		t.Fatalf("first event old = %v, want NoParent", firstOld)
	}
}

func TestBeaconExtPiggyback(t *testing.T) {
	dep := topology.Line(2, 7)
	tn := buildNet(t, dep, 7)
	tn.ctps[0].SetBeaconExt(func() any { return "ext-data" })
	var seen any
	tn.ctps[1].OnBeaconReceived(func(from radio.NodeID, b *ctp.Beacon) {
		if from == 0 && b.Ext != nil {
			seen = b.Ext
		}
	})
	tn.run(t, 30*time.Second)
	if seen != "ext-data" {
		t.Fatalf("piggybacked ext = %v, want ext-data", seen)
	}
}

func TestNeighborAdTracked(t *testing.T) {
	dep := topology.Line(2, 7)
	tn := buildNet(t, dep, 8)
	tn.run(t, 30*time.Second)
	etx, parent, hops, ok := tn.ctps[1].NeighborAd(0)
	if !ok {
		t.Fatal("no advertisement recorded for sink neighbor")
	}
	if etx != 0 || parent != ctp.NoParent || hops != 0 {
		t.Fatalf("sink ad = (%v,%v,%v)", etx, parent, hops)
	}
}

func TestNoRouteErrors(t *testing.T) {
	dep := topology.Line(2, 300) // out of radio range
	tn := buildNet(t, dep, 9)
	tn.run(t, 30*time.Second)
	if tn.ctps[1].HasRoute() {
		t.Fatal("route across 300m should not exist")
	}
	if err := tn.ctps[1].SendToSink("x"); err == nil {
		t.Fatal("SendToSink without route must error")
	}
	if tn.ctps[1].Stats().DroppedNoTree == 0 {
		t.Fatal("drop not counted")
	}
}

func TestDuplicateSuppressionInForwarding(t *testing.T) {
	dep := topology.Line(3, 7)
	tn := buildNet(t, dep, 10)
	tn.run(t, 60*time.Second)
	count := 0
	tn.ctps[0].SetDeliverFunc(func(origin radio.NodeID, app any) { count++ })
	if err := tn.ctps[2].SendToSink("once"); err != nil {
		t.Fatal(err)
	}
	tn.run(t, 30*time.Second)
	if count != 1 {
		t.Fatalf("sink delivered %d copies, want 1", count)
	}
}

// TestBeaconResetCausesSumToTrickleResets runs a small grid with the
// reference field's beacon triggers (help 6, cost change 3), data from
// every node, a coding layer's TriggerBeacon every few seconds on some
// nodes, and a relay that dies mid-run: on every node the resets counted
// by cause must add up to the beacon timer's resets, and the run must
// see every cause.
func TestBeaconResetCausesSumToTrickleResets(t *testing.T) {
	dep := topology.Grid("g", 4, 4, 21, 21, false, topology.Point{}, 4)
	cfg := ctp.DefaultConfig()
	cfg.HelpBeaconDelta, cfg.CostChangeDelta = 6, 3
	tn := buildNetConfig(t, dep, 4, cfg)
	for i := range tn.ctps {
		if i%3 == 1 {
			tick := sim.NewTicker(tn.eng, 7*time.Second, tn.ctps[i].TriggerBeacon)
			tick.Start()
		}
		if i != dep.Sink {
			c := tn.ctps[i]
			tick := sim.NewTicker(tn.eng, 2*time.Second, func() { _ = c.SendToSink(nil) })
			tick.Start()
		}
	}
	tn.run(t, 60*time.Second)
	// Kill a relay: its children lose their parent and re-attach.
	victim := -1
	for i, c := range tn.ctps {
		if i != dep.Sink && c.HasRoute() && c.Parent() == radio.NodeID(dep.Sink) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node attached to the sink")
	}
	tn.macs[victim].Kill()
	tn.ctps[victim].Stop()
	tn.run(t, 120*time.Second)

	var all ctp.ResetCauses
	for i, c := range tn.ctps {
		r := c.Stats().BeaconResets
		if got, want := r.Total(), c.TrickleResets(); got != want {
			t.Fatalf("node %d: resets by cause %+v add up to %d, timer reset %d times", i, r, got, want)
		}
		all.CostChange += r.CostChange
		all.Help += r.Help
		all.InfiniteNeighbor += r.InfiniteNeighbor
		all.Orphan += r.Orphan
		all.Adopt += r.Adopt
		all.Detach += r.Detach
		all.Trigger += r.Trigger
	}
	t.Logf("resets by cause over the grid: %+v", all)
	if all.CostChange == 0 || all.Help == 0 || all.InfiniteNeighbor == 0 || all.Orphan == 0 ||
		all.Adopt == 0 || all.Detach == 0 || all.Trigger == 0 {
		t.Fatalf("run missed a cause: %+v", all)
	}
}
