package experiment

import (
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/drip"
	"teleadjust/internal/mac"
	"teleadjust/internal/radio"
	"teleadjust/internal/rpl"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/topology"
)

// smallScenario is a fast 8-node test scenario (line of strong links).
func smallScenario(seed uint64) Scenario {
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	s := Scenario{
		Name:  "test-line",
		Dep:   topology.Line(8, 7),
		Radio: params,
		Mac:   mac.DefaultConfig(),
		Ctp:   ctp.DefaultConfig(),
		Tele:  core.DefaultConfig(),
		Drip:  drip.DefaultConfig(),
		Rpl:   rpl.DefaultConfig(),
		Seed:  seed,
	}
	s.Tele.AllocDelay = 2 * 512 * time.Millisecond
	s.Tele.ReportInterval = 15 * time.Second
	s.Rpl.DAOInterval = 15 * time.Second
	s.TuneControlTimeouts(15 * time.Second)
	return s
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("Build without deployment accepted")
	}
	bad := smallScenario(1)
	bad.Dep = &topology.Deployment{Name: "empty"}
	if _, err := Build(bad.config(ProtoTeleAdjust)); err == nil {
		t.Fatal("Build with empty deployment accepted")
	}
}

func TestBuildAllProtocols(t *testing.T) {
	scn := smallScenario(1)
	for _, p := range Protocols() {
		net, err := Build(scn.config(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if net.SinkCtrl() == nil {
			t.Fatalf("%v: sink protocol instance missing", p)
		}
		if net.SinkCtrl().Name() == "" {
			t.Fatalf("%v: unnamed protocol", p)
		}
		if net.Medium.NumNodes() != 8 {
			t.Fatalf("%v: medium has %d nodes", p, net.Medium.NumNodes())
		}
	}
	// Typed accessors resolve exactly the protocol the net was built with.
	tele, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	if tele.SinkTele() == nil || tele.SinkDrip() != nil || tele.SinkRPL() != nil {
		t.Fatal("typed accessors disagree with the built protocol")
	}
	none, err := Build(scn.config(ProtoNone))
	if err != nil {
		t.Fatal(err)
	}
	if none.SinkCtrl() != nil {
		t.Fatal("ProtoNone built a control protocol")
	}
}

func TestCodingStudySmall(t *testing.T) {
	res, err := RunCodingStudy(smallScenario(2), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged < 0.99 {
		t.Fatalf("converged = %v, want ~1 on a strong 8-node line", res.Converged)
	}
	// Code length must grow with hop count (Fig 6a property).
	keys := res.CodeLenByHop.Keys()
	if len(keys) < 5 {
		t.Fatalf("too few hop levels: %v", keys)
	}
	first := res.CodeLenByHop.Get(keys[0]).Mean()
	last := res.CodeLenByHop.Get(keys[len(keys)-1]).Mean()
	if last <= first {
		t.Fatalf("code length not increasing: hop %d→%.1f bits, hop %d→%.1f bits",
			keys[0], first, keys[len(keys)-1], last)
	}
	// On a line, reverse hops ≈ CTP hops (Fig 6d property).
	if res.HopRatio < 0.8 || res.HopRatio > 1.3 {
		t.Fatalf("hop ratio = %v, want ~1", res.HopRatio)
	}
	// Convergence measured in beacons must be recorded and bounded.
	if res.ConvergenceBeacons.Count() == 0 {
		t.Fatal("no convergence samples")
	}
	if res.ConvergenceBeacons.Max() > 100 {
		t.Fatalf("max convergence %v beacons on a trivial line", res.ConvergenceBeacons.Max())
	}
}

func TestControlStudyTele(t *testing.T) {
	opts := ControlOpts{
		Warmup:   2 * time.Minute,
		Packets:  6,
		Interval: 16 * time.Second,
		Drain:    30 * time.Second,
	}
	res, err := RunControlStudy(smallScenario(3), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proto != "Tele" {
		t.Fatalf("proto = %q", res.Proto)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.PDR() < 0.8 {
		t.Fatalf("PDR = %v on a strong line", res.PDR())
	}
	if res.TxPerPacket <= 0 {
		t.Fatal("no transmissions recorded")
	}
	if res.AvgDutyCycle <= 0 || res.AvgDutyCycle > 0.5 {
		t.Fatalf("duty cycle %v implausible", res.AvgDutyCycle)
	}
	if res.ATHX.Len() == 0 {
		t.Fatal("no ATHX samples")
	}
}

func TestControlStudyAllProtocolsRun(t *testing.T) {
	opts := ControlOpts{
		Warmup:   2 * time.Minute,
		Packets:  4,
		Interval: 16 * time.Second,
		Drain:    30 * time.Second,
	}
	for _, proto := range []Proto{ProtoReTele, ProtoTeleStrict, ProtoDrip, ProtoRPL} {
		res, err := RunControlStudy(smallScenario(4), proto, opts)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Sent+res.Skipped == 0 {
			t.Fatalf("%v: nothing attempted", proto)
		}
	}
}

func TestControlStudyUnknownProto(t *testing.T) {
	if _, err := RunControlStudy(smallScenario(5), Proto("bogus"), DefaultControlOpts()); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestSeedsRunnerMerges(t *testing.T) {
	opts := ControlOpts{
		Warmup:   90 * time.Second,
		Packets:  3,
		Interval: 16 * time.Second,
		Drain:    20 * time.Second,
	}
	res, err := ControlStudy(ProtoTele, opts).Replicate(smallScenario, []uint64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 6 {
		t.Fatalf("merged sent = %d, want 6", res.Sent)
	}
	if _, err := ControlStudy(ProtoTele, opts).Replicate(smallScenario, nil, 1); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestKillNodeSilencesRadio(t *testing.T) {
	scn := smallScenario(6)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	if err := net.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := net.Stacks[3].Mac.Stats().FrameTx
	net.KillNode(3)
	if err := net.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if net.Stacks[3].Mac.Stats().FrameTx != before {
		t.Fatal("killed node kept transmitting")
	}
	if net.Medium.Radio(3).On() {
		t.Fatal("killed node's radio still on")
	}
	if net.Alive(3) {
		t.Fatal("Alive(3) still true after KillNode")
	}
	if !net.Stacks[3].Mac.Dead() {
		t.Fatal("killed node's MAC not marked dead")
	}
	// Idempotent, and the sink is protected.
	net.KillNode(3)
	net.KillNode(net.Sink)
	if !net.Alive(net.Sink) {
		t.Fatal("KillNode reached the sink")
	}
}

// TestOnTimeGaugeReadsMedium pins the registry gauge Fig 9's duty cycle
// reads: every node's "on-time-s" equals the medium radio's cumulative
// on-time, a reboot does not reset it (the mote's energy history outlives
// the stack), and unregistered names are reported absent.
func TestOnTimeGaugeReadsMedium(t *testing.T) {
	scn := smallScenario(6)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	if err := net.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	onTime := func(id radio.NodeID) float64 {
		t.Helper()
		v, ok := net.Metrics.Gauge(telemetry.LayerRadio, id, "on-time-s")
		if !ok {
			t.Fatalf("node %d has no on-time-s gauge", id)
		}
		if want := net.Medium.Radio(id).OnTime().Seconds(); v != want {
			t.Fatalf("node %d on-time-s = %v, medium reads %v", id, v, want)
		}
		return v
	}
	for i := range net.Stacks {
		onTime(radio.NodeID(i))
	}
	before := onTime(3)
	if before <= 0 {
		t.Fatalf("node 3 on-time %v after 30 s of duty cycling", before)
	}
	net.KillNode(3)
	if err := net.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	net.RebootNode(3)
	if err := net.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if after := onTime(3); after <= before {
		t.Fatalf("rebooted node's on-time %v did not extend the pre-kill %v", after, before)
	}
	if _, ok := net.Metrics.Gauge(telemetry.LayerRadio, 3, "no-such-gauge"); ok {
		t.Fatal("unregistered gauge name reported present")
	}
}

// TestRebootNodeReattaches kills the end-of-line node, reboots it with a
// fresh (amnesiac) stack, and verifies it rejoins the tree and regains a
// path code. A reboot of a live node must be a no-op.
func TestRebootNodeReattaches(t *testing.T) {
	scn := smallScenario(14)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Tele(7).Code(); !ok {
		t.Fatal("node 7 never converged; cannot test reboot")
	}
	net.KillNode(7)
	if err := net.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	net.RebootNode(7)
	if !net.Alive(7) {
		t.Fatal("RebootNode left the node dead")
	}
	// A rebooted mote loses all volatile state.
	if net.Stacks[7].Ctp.HasRoute() {
		t.Fatal("rebooted node retained a route")
	}
	if _, ok := net.Tele(7).Code(); ok {
		t.Fatal("rebooted node retained a path code")
	}
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if h := net.CTPHops(7); h <= 0 {
		t.Fatalf("rebooted node did not re-attach (hops %d)", h)
	}
	if _, ok := net.Tele(7).Code(); !ok {
		t.Fatal("rebooted node did not regain a path code")
	}
	// Rebooting a live node must not rebuild its stack.
	st := net.Stacks[7]
	net.RebootNode(7)
	if net.Stacks[7] != st {
		t.Fatal("reboot of a live node rebuilt the stack")
	}
}

func TestOracleBackedByMedium(t *testing.T) {
	scn := smallScenario(7)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	o := net.Oracle()
	// On a 7 m line, node 3's radio neighbors are 2 and 4.
	ns := o.NeighborsOf(3)
	if len(ns) != 2 {
		t.Fatalf("neighbors of 3 = %v, want {2,4}", ns)
	}
	if q := o.LinkQuality(2, 3); q < 0.9 {
		t.Fatalf("adjacent link quality %v", q)
	}
	if q := o.LinkQuality(0, 7); q != 0 {
		t.Fatalf("49 m link quality %v, want 0", q)
	}
}

func TestScenarioConstructors(t *testing.T) {
	for _, s := range []Scenario{TightGrid(1), SparseLinear(1), Indoor(1, false), Indoor(1, true)} {
		if err := s.Dep.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.Mac.WakeInterval != 512*time.Millisecond {
			t.Fatalf("%s: wake interval %v, want 512ms (paper)", s.Name, s.Mac.WakeInterval)
		}
	}
	if TightGrid(1).Dep.Len() != 225 || SparseLinear(1).Dep.Len() != 225 {
		t.Fatal("simulation fields must have 225 nodes")
	}
	if Indoor(1, false).Dep.Len() != 40 {
		t.Fatal("indoor testbed must have 40 nodes")
	}
	if Indoor(1, true).WifiPowerDBm == 0 {
		t.Fatal("indoor-19 must enable the interferer")
	}
	if Indoor(1, false).WifiPowerDBm != 0 {
		t.Fatal("indoor-26 must not enable the interferer")
	}
}

func TestTreeAndCodeCoverageHelpers(t *testing.T) {
	scn := smallScenario(8)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if c := net.TreeCoverage(); c < 0.99 {
		t.Fatalf("tree coverage %v", c)
	}
	if c := net.CodeCoverage(); c < 0.99 {
		t.Fatalf("code coverage %v", c)
	}
	// CTPHops on the line must be the index.
	for i := 1; i < 8; i++ {
		if h := net.CTPHops(radio.NodeID(i)); h != i {
			t.Fatalf("node %d hops = %d", i, h)
		}
	}
}

func TestScopeStudySmall(t *testing.T) {
	scn := smallScenario(9)
	opts := ScopeOpts{
		Warmup:     2 * time.Minute,
		Operations: 1,
		Settle:     45 * time.Second,
	}
	res, err := RunScopeStudy(scn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Operations != 1 {
		t.Fatalf("operations = %d, want 1", res.Operations)
	}
	// On an 8-node line the depth-1 subtree is the whole chain below the
	// sink's child.
	if res.Members < 5 {
		t.Fatalf("members = %d, want the chain", res.Members)
	}
	if res.Coverage.Mean() < 0.7 {
		t.Fatalf("coverage %.2f", res.Coverage.Mean())
	}
	if res.TxPerMember <= 0 || res.UnicastTxPerMember <= 0 {
		t.Fatalf("costs not measured: %+v", res)
	}
	// Scoped flood amortizes: per-member cost below unicast per-member.
	if res.TxPerMember >= res.UnicastTxPerMember {
		t.Logf("note: scoped %.2f vs unicast %.2f tx/member (chain topology keeps them close)",
			res.TxPerMember, res.UnicastTxPerMember)
	}
}

// TestScopeStudyDeterministic: the same seed gives the same result, so
// the unicast pass must not depend on the registry's map order.
func TestScopeStudyDeterministic(t *testing.T) {
	opts := ScopeOpts{Warmup: 2 * time.Minute, Operations: 1, Settle: 45 * time.Second}
	first, err := RunScopeStudy(smallScenario(9), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := RunScopeStudy(smallScenario(9), opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.TxPerMember != first.TxPerMember || again.UnicastTxPerMember != first.UnicastTxPerMember ||
			again.Acked != first.Acked {
			t.Fatalf("run %d diverged: %+v vs %+v", i+1, again, first)
		}
	}
}

func TestControlStudyWithDataTraffic(t *testing.T) {
	opts := ControlOpts{
		Warmup:   2 * time.Minute,
		Packets:  4,
		Interval: 16 * time.Second,
		Drain:    30 * time.Second,
		DataIPI:  20 * time.Second,
	}
	res, err := RunControlStudy(smallScenario(11), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PDR() < 0.7 {
		t.Fatalf("PDR %.2f with background data traffic", res.PDR())
	}
}

func TestControlStudyWithChurn(t *testing.T) {
	opts := ControlOpts{
		Warmup:    2 * time.Minute,
		Packets:   6,
		Interval:  16 * time.Second,
		Drain:     30 * time.Second,
		KillNodes: 1,
	}
	res, err := RunControlStudy(smallScenario(12), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A line with a killed mid-node partitions; only completeness of the
	// accounting is asserted here (the indoor churn behaviour is covered
	// by the long test).
	if res.Sent == 0 {
		t.Fatal("nothing sent under churn")
	}
}

// TestEveryStudyInvokesOnNetBuilt: every runner hands each network it
// builds to the scenario's OnNetBuilt hook exactly once — the seam the
// CLIs' -svg export and the fault-matrix oracle hang on.
func TestEveryStudyInvokesOnNetBuilt(t *testing.T) {
	codecs := core.CodecNames()
	tp := throughputOpts()
	svc := svcTestOpts()
	cases := []struct {
		name string
		want int // networks the study builds
		run  func(Scenario) error
	}{
		{"control", 1, func(scn Scenario) error {
			_, err := RunControlStudy(scn, ProtoTele, replicateOpts())
			return err
		}},
		{"coding", 1, func(scn Scenario) error {
			_, err := RunCodingStudy(scn, time.Minute)
			return err
		}},
		{"coding-schemes", len(codecs), func(scn Scenario) error {
			_, err := RunCodingSchemesStudy(scn, codecs, codecStudyOpts())
			return err
		}},
		{"throughput", len(tp.Concurrency), func(scn Scenario) error {
			_, err := RunThroughputStudy(scn, ProtoTele, tp)
			return err
		}},
		{"service", 2 * len(svc.Rates), func(scn Scenario) error {
			_, err := RunServiceStudy(scn, ProtoTele, svc)
			return err
		}},
		{"scope", 2, func(scn Scenario) error {
			_, err := RunScopeStudy(scn, ScopeOpts{Warmup: 2 * time.Minute, Operations: 1, Settle: 30 * time.Second})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scn := smallScenario(3)
			seen := make(map[*Net]int)
			calls := 0
			scn.OnNetBuilt = func(n *Net) {
				calls++
				seen[n]++
			}
			if err := c.run(scn); err != nil {
				t.Fatal(err)
			}
			if calls != c.want || len(seen) != c.want {
				t.Fatalf("OnNetBuilt: %d calls over %d networks, want one call per network for %d", calls, len(seen), c.want)
			}
		})
	}
}
