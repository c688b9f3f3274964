package core_test

import (
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/experiment"
	"teleadjust/internal/mac"
	"teleadjust/internal/radio"
	"teleadjust/internal/topology"
)

// buildTele assembles a quiet-noise TeleAdjusting network.
func buildTele(t *testing.T, dep *topology.Deployment, seed uint64, mutate func(*experiment.Config)) *experiment.Net {
	t.Helper()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	cfg := experiment.Config{
		Dep:      dep,
		Radio:    params,
		Mac:      mac.DefaultConfig(),
		Ctp:      ctp.DefaultConfig(),
		Tele:     core.DefaultConfig(),
		Protocol: experiment.ProtoTeleAdjust,
		Seed:     seed,
	}
	// Faster experiments: shorter allocation delay and report interval.
	cfg.Tele.AllocDelay = 3 * 512 * time.Millisecond
	cfg.Tele.ReportInterval = 20 * time.Second
	cfg.Tele.ControlTimeout = 20 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := experiment.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	return net
}

func run(t *testing.T, net *experiment.Net, d time.Duration) {
	t.Helper()
	if err := net.Run(d); err != nil {
		t.Fatal(err)
	}
}

func TestCodesConvergeOnLine(t *testing.T) {
	dep := topology.Line(5, 7)
	net := buildTele(t, dep, 1, nil)
	run(t, net, 3*time.Minute)
	// Every node must hold a code whose parent's code is a strict prefix.
	for i := 1; i < 5; i++ {
		code, ok := net.Tele(radio.NodeID(i)).Code()
		if !ok {
			t.Fatalf("node %d has no code after 3 min", i)
		}
		parent := net.Stacks[i].Ctp.Parent()
		pcode, pok := net.Tele(radio.NodeID(parent)).Code()
		if !pok {
			t.Fatalf("parent %d of node %d has no code", parent, i)
		}
		if !pcode.IsPrefixOf(code) || pcode.Len() >= code.Len() {
			t.Fatalf("parent code %v not strict prefix of %v", pcode, code)
		}
	}
	// Codes must be unique.
	seen := map[string]int{}
	for i := 0; i < 5; i++ {
		c, _ := net.Tele(radio.NodeID(i)).Code()
		if prev, dup := seen[c.String()]; dup {
			t.Fatalf("nodes %d and %d share code %v", prev, i, c)
		}
		seen[c.String()] = i
	}
	// Depth on a strict line equals the hop index.
	for i := 1; i < 5; i++ {
		if net.Tele(radio.NodeID(i)).Depth() != uint8(i) {
			t.Errorf("node %d depth = %d, want %d", i, net.Tele(radio.NodeID(i)).Depth(), i)
		}
	}
}

func TestControllerLearnsCodes(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildTele(t, dep, 2, nil)
	run(t, net, 3*time.Minute)
	reg := net.SinkTele().Registry()
	for i := 1; i < 4; i++ {
		info, ok := reg[radio.NodeID(i)]
		if !ok {
			t.Fatalf("controller has no code for node %d", i)
		}
		code, _ := net.Tele(radio.NodeID(i)).Code()
		if !info.Code.Equal(code) {
			t.Fatalf("controller code %v != node code %v", info.Code, code)
		}
	}
}

func TestRemoteControlEndToEnd(t *testing.T) {
	dep := topology.Line(5, 7)
	net := buildTele(t, dep, 3, nil)
	run(t, net, 3*time.Minute)
	var results []core.Result
	delivered := map[uint32]bool{}
	for i := 1; i < 5; i++ {
		i := i
		net.Tele(radio.NodeID(i)).SetDeliveredFn(func(uid uint32, hops uint8) { delivered[uid] = true })
	}
	for i := 1; i < 5; i++ {
		uid, err := net.SinkTele().SendControl(radio.NodeID(i), "set-param", func(r core.Result) {
			results = append(results, r)
		})
		if err != nil {
			t.Fatalf("SendControl to %d: %v", i, err)
		}
		_ = uid
		run(t, net, 30*time.Second)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Fatalf("control to %d failed: %+v", r.Dst, r)
		}
		if r.Latency <= 0 {
			t.Fatalf("non-positive latency: %+v", r)
		}
	}
	if len(delivered) != 4 {
		t.Fatalf("destinations delivered %d packets, want 4", len(delivered))
	}
}

func TestControlToUnknownNodeErrors(t *testing.T) {
	dep := topology.Line(3, 7)
	net := buildTele(t, dep, 4, nil)
	// No convergence time: registry is empty.
	if _, err := net.SinkTele().SendControl(2, "x", nil); err == nil {
		t.Fatal("SendControl without registry entry must error")
	}
	if _, err := net.SinkTele().SendControl(net.Sink, "x", nil); err == nil {
		t.Fatal("SendControl to self must error")
	}
	if _, err := net.Tele(radio.NodeID(1)).SendControl(2, "x", nil); err == nil {
		t.Fatal("SendControl from non-sink must error")
	}
}

func TestControlToDeadNodeFailsOrRescues(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildTele(t, dep, 5, nil)
	run(t, net, 3*time.Minute)
	// Kill node 3 (the last one): no rescue neighbor can help because its
	// radio is off entirely.
	net.KillNode(3)
	done := make(chan struct{}, 1)
	var res core.Result
	if _, err := net.SinkTele().SendControl(3, "x", func(r core.Result) {
		res = r
		done <- struct{}{}
	}); err != nil {
		t.Fatal(err)
	}
	run(t, net, 2*time.Minute)
	select {
	case <-done:
	default:
		t.Fatal("no result for control to dead node")
	}
	if res.OK {
		t.Fatal("control to powered-off node reported success")
	}
}

func TestRescuePathDeliversAroundDeadParent(t *testing.T) {
	// Diamond: sink 0 at origin; nodes 1 and 2 both reach 0 and 3.
	dep := &topology.Deployment{
		Name: "diamond",
		Positions: []topology.Point{
			{X: 0, Y: 0},
			{X: 6, Y: 3},
			{X: 6, Y: -3},
			{X: 12, Y: 0},
		},
		Sink: 0,
	}
	net := buildTele(t, dep, 6, nil)
	run(t, net, 3*time.Minute)
	if _, ok := net.SinkTele().Registry()[3]; !ok {
		t.Skip("node 3 not registered; topology did not converge as expected")
	}
	// Node 3's tree parent is 1 or 2; kill it so the encoded path breaks,
	// then expect delivery anyway (opportunistic or rescue).
	parent := net.Stacks[3].Ctp.Parent()
	if parent != 1 && parent != 2 {
		t.Skipf("node 3's parent is %d; want 1 or 2", parent)
	}
	net.KillNode(parent)
	deliveredAt := time.Duration(0)
	net.Tele(radio.NodeID(3)).SetDeliveredFn(func(uid uint32, hops uint8) { deliveredAt = net.Eng.Now() })
	var res core.Result
	got := false
	if _, err := net.SinkTele().SendControl(3, "fix", func(r core.Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	run(t, net, 2*time.Minute)
	if !got {
		t.Fatal("no result")
	}
	if !res.OK {
		t.Fatalf("control around dead parent failed: %+v (stats %+v)", res, net.SinkTele().Stats())
	}
	if deliveredAt == 0 {
		t.Fatal("destination never saw the packet")
	}
}

func TestStrictModeStillDelivers(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildTele(t, dep, 7, func(cfg *experiment.Config) {
		cfg.Tele.Opportunistic = false
	})
	run(t, net, 3*time.Minute)
	var res core.Result
	got := false
	if _, err := net.SinkTele().SendControl(3, "x", func(r core.Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	run(t, net, time.Minute)
	if !got || !res.OK {
		t.Fatalf("strict-mode delivery failed: got=%v res=%+v", got, res)
	}
}

func TestTransmissionCountReasonable(t *testing.T) {
	// On an n-hop line, a delivered control packet should take roughly n
	// logical transmissions (the Table III property that TeleAdjusting is
	// near the hop count, far from flooding).
	dep := topology.Line(4, 7)
	net := buildTele(t, dep, 8, nil)
	run(t, net, 3*time.Minute)
	before := uint64(0)
	for _, st := range net.Stacks {
		te := st.Ctrl.(*core.Engine)
		before += te.Stats().ControlSends
	}
	const packets = 5
	okCount := 0
	for p := 0; p < packets; p++ {
		if _, err := net.SinkTele().SendControl(3, p, func(r core.Result) {
			if r.OK {
				okCount++
			}
		}); err != nil {
			t.Fatal(err)
		}
		run(t, net, 25*time.Second)
	}
	after := uint64(0)
	for _, st := range net.Stacks {
		te := st.Ctrl.(*core.Engine)
		after += te.Stats().ControlSends
	}
	if okCount < packets-1 {
		t.Fatalf("only %d/%d delivered", okCount, packets)
	}
	perPacket := float64(after-before) / packets
	if perPacket < 2 || perPacket > 8 {
		t.Fatalf("%.1f transmissions per 3-hop control packet, want ~3-6", perPacket)
	}
}

func TestATHXRecorded(t *testing.T) {
	dep := topology.Line(3, 7)
	net := buildTele(t, dep, 9, nil)
	run(t, net, 3*time.Minute)
	if _, err := net.SinkTele().SendControl(2, "x", nil); err != nil {
		t.Fatal(err)
	}
	run(t, net, 30*time.Second)
	samples := 0
	for i := 1; i < 3; i++ {
		samples += len(net.Tele(radio.NodeID(i)).ATHX())
	}
	if samples == 0 {
		t.Fatal("no ATHX samples recorded")
	}
}

func TestCodeCoverageHelper(t *testing.T) {
	dep := topology.Line(3, 7)
	net := buildTele(t, dep, 10, nil)
	if c := net.CodeCoverage(); c != 0 {
		t.Fatalf("initial code coverage = %v", c)
	}
	run(t, net, 3*time.Minute)
	if c := net.CodeCoverage(); c != 1 {
		t.Fatalf("code coverage after convergence = %v, want 1", c)
	}
}

// TestLiveSpaceExtension forces Section III-B6's space extension in a
// running network: with the tight reserve policy, node 1 sizes its bit
// space exactly for its initial child; when node 3's original parent dies
// and it re-attaches under node 1, the space is full and must extend —
// and every code must stay unique and consistent.
func TestLiveSpaceExtension(t *testing.T) {
	dep := &topology.Deployment{
		Name: "ext",
		Positions: []topology.Point{
			{X: 0, Y: 0},      // 0 sink
			{X: 7, Y: 2},      // 1
			{X: 7, Y: -2},     // 2
			{X: 13, Y: 7},     // 3: node 1's initial child (out of node 2's range)
			{X: 7.5, Y: -7.5}, // 4: strongly under node 2; node 1 reachable but marginal
		},
		Sink: 0,
	}
	net := buildTele(t, dep, 61, func(cfg *experiment.Config) {
		cfg.Tele.Reserve = core.TightReserve
	})
	run(t, net, 3*time.Minute)
	if p := net.Stacks[4].Ctp.Parent(); p != 2 {
		t.Skipf("node 4 parented under %d, want 2", p)
	}
	if p := net.Stacks[3].Ctp.Parent(); p != 1 {
		t.Skipf("node 3 parented under %d, want 1", p)
	}
	if net.Tele(radio.NodeID(1)).SpaceBits() != 1 {
		t.Skipf("node 1 space = %d bits, want the tight 1-bit space", net.Tele(radio.NodeID(1)).SpaceBits())
	}
	// Kill node 2: node 4 re-attaches under node 1, whose 1-bit space is
	// already full with node 3 — it must extend.
	net.KillNode(2)
	run(t, net, 4*time.Minute)
	if p := net.Stacks[4].Ctp.Parent(); p != 1 {
		t.Skipf("node 4 re-parented under %d, want 1", p)
	}
	if net.Tele(radio.NodeID(1)).Stats().SpaceExtensions == 0 {
		t.Fatal("no space extension despite a full tight space and a new child")
	}
	if net.Tele(radio.NodeID(1)).SpaceBits() < 2 {
		t.Fatalf("space = %d bits after extension", net.Tele(radio.NodeID(1)).SpaceBits())
	}
	c1, _ := net.Tele(radio.NodeID(1)).Code()
	c3, ok3 := net.Tele(radio.NodeID(3)).Code()
	c4, ok4 := net.Tele(radio.NodeID(4)).Code()
	if !ok3 || !ok4 {
		t.Fatal("children lost their codes across the extension")
	}
	if !c1.IsPrefixOf(c3) || !c1.IsPrefixOf(c4) {
		t.Fatalf("children codes %v, %v do not extend parent %v", c3, c4, c1)
	}
	if c3.Equal(c4) {
		t.Fatalf("children share code %v", c3)
	}
}

// TestCodeChangePropagates// TestCodeChangePropagatesToSubtree: when a mid-chain node switches
// parents, its own code changes AND its child's code must follow (the
// iterative update of Section III-B6).
func TestCodeChangePropagatesToSubtree(t *testing.T) {
	// 0 - 1 - 3 - 4 with an alternative relay 2 beside 1.
	dep := &topology.Deployment{
		Name: "switch",
		Positions: []topology.Point{
			{X: 0, Y: 0},
			{X: 7, Y: 2},  // 1
			{X: 7, Y: -2}, // 2 alternative
			{X: 13, Y: 0}, // 3 (hears 1 and 2)
			{X: 20, Y: 0}, // 4 child of 3
		},
		Sink: 0,
	}
	net := buildTele(t, dep, 62, nil)
	run(t, net, 3*time.Minute)
	c3, ok3 := net.Tele(radio.NodeID(3)).Code()
	c4, ok4 := net.Tele(radio.NodeID(4)).Code()
	if !ok3 || !ok4 {
		t.Skip("codes did not converge")
	}
	if !c3.IsPrefixOf(c4) {
		t.Skipf("node 4 not under node 3 (codes %v, %v)", c3, c4)
	}
	// Kill node 3's current parent: it must re-attach via the other
	// relay, obtain a new code, and node 4's code must follow.
	oldParent := net.Stacks[3].Ctp.Parent()
	if oldParent != 1 && oldParent != 2 {
		t.Skipf("node 3's parent is %d", oldParent)
	}
	net.KillNode(oldParent)
	run(t, net, 4*time.Minute)
	n3, ok3b := net.Tele(radio.NodeID(3)).Code()
	n4, ok4b := net.Tele(radio.NodeID(4)).Code()
	if !ok3b || !ok4b {
		t.Fatal("codes lost after parent switch")
	}
	if n3.Equal(c3) {
		t.Fatalf("node 3's code %v unchanged after its parent died", n3)
	}
	if !n3.IsPrefixOf(n4) {
		t.Fatalf("child code %v does not extend the NEW parent code %v", n4, n3)
	}
}

// TestEngineCtrlTableBounded issues ops for many control timeouts and
// checks that the sink's per-UID forwarding table keeps to its sweep bound
// (512 entries, or what the last two timeouts put there) instead of
// growing by one entry per op.
func TestEngineCtrlTableBounded(t *testing.T) {
	net := buildTele(t, topology.Line(3, 7), 1, nil)
	run(t, net, 3*time.Minute)
	sink := net.SinkTele()
	window := 2 * 20 * time.Second // 2 × buildTele's ControlTimeout
	const ops = 650
	var issued []time.Duration
	for i := 0; i < ops; i++ {
		if _, err := sink.SendControl(radio.NodeID(1+i%2), "set-param", nil); err != nil {
			t.Fatal(err)
		}
		now := net.Eng.Now()
		issued = append(issued, now)
		recent := 0
		for _, at := range issued {
			if at >= now-window {
				recent++
			}
		}
		if n := sink.CtrlLen(); n > 512+recent {
			t.Fatalf("after %d ops the sink holds %d forwarding states, want <= 512+%d", i+1, n, recent)
		}
		run(t, net, 2*time.Second)
	}
}
