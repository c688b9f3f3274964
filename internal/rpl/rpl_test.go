package rpl_test

import (
	"testing"
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/experiment"
	"teleadjust/internal/mac"
	"teleadjust/internal/radio"
	"teleadjust/internal/rpl"
	"teleadjust/internal/topology"
)

func buildRPL(t *testing.T, dep *topology.Deployment, seed uint64) *experiment.Net {
	t.Helper()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	cfg := experiment.Config{
		Dep:      dep,
		Radio:    params,
		Mac:      mac.DefaultConfig(),
		Ctp:      ctp.DefaultConfig(),
		Rpl:      rpl.DefaultConfig(),
		Protocol: experiment.ProtoRPL,
		Seed:     seed,
	}
	cfg.Rpl.DAOInterval = 20 * time.Second
	cfg.Rpl.ControlTimeout = 30 * time.Second
	net, err := experiment.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	return net
}

func TestDAOsPopulateRoutes(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildRPL(t, dep, 1)
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// The sink must have routes to every node; intermediate nodes to their
	// subtrees.
	for i := 1; i < 4; i++ {
		if !net.SinkRPL().HasRoute(radio.NodeID(i)) {
			t.Fatalf("sink has no route to node %d", i)
		}
	}
	if !net.RPL(1).HasRoute(3) {
		t.Fatal("node 1 has no route to descendant 3")
	}
	if net.RPL(3).HasRoute(1) {
		t.Fatal("leaf stores a route to its ancestor")
	}
}

func TestDownwardControlDelivers(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildRPL(t, dep, 2)
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var res rpl.Result
	got := false
	var deliveredHops uint8
	net.RPL(3).SetDeliveredFn(func(uid uint32, hops uint8) { deliveredHops = hops })
	if _, err := net.SinkRPL().SendControl(3, "cmd", func(r rpl.Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !got || !res.OK {
		t.Fatalf("rpl control failed: got=%v res=%+v", got, res)
	}
	if deliveredHops != 3 {
		t.Fatalf("delivered after %d hops, want 3 (strict routing table path)", deliveredHops)
	}
}

func TestNoRouteError(t *testing.T) {
	dep := topology.Line(3, 7)
	net := buildRPL(t, dep, 3)
	// Before any DAO arrives, the sink has no route.
	if _, err := net.SinkRPL().SendControl(2, "x", nil); err != rpl.ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if _, err := net.RPL(1).SendControl(2, "x", nil); err != rpl.ErrNotSink {
		t.Fatalf("err = %v, want ErrNotSink", err)
	}
}

func TestDeadRelayBreaksDeterministicPath(t *testing.T) {
	// The paper's point: RPL's stored route cannot adapt when the on-path
	// relay dies, so delivery fails.
	dep := topology.Line(4, 7)
	net := buildRPL(t, dep, 4)
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !net.SinkRPL().HasRoute(3) {
		t.Skip("route to node 3 never formed")
	}
	net.KillNode(2) // kill the on-path relay (line: 0-1-2-3)
	var res rpl.Result
	got := false
	if _, err := net.SinkRPL().SendControl(3, "x", func(r rpl.Result) { res = r; got = true }); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("no result")
	}
	if res.OK {
		t.Fatal("control across a dead deterministic relay reported success")
	}
}

func TestTransmissionsMatchHops(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildRPL(t, dep, 5)
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	before := uint64(0)
	for i := 0; i < net.Dep.Len(); i++ {
		before += net.RPL(radio.NodeID(i)).Stats().DownSends
	}
	const packets = 5
	okCount := 0
	for p := 0; p < packets; p++ {
		if _, err := net.SinkRPL().SendControl(3, p, func(r rpl.Result) {
			if r.OK {
				okCount++
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	after := uint64(0)
	for i := 0; i < net.Dep.Len(); i++ {
		after += net.RPL(radio.NodeID(i)).Stats().DownSends
	}
	if okCount < packets-1 {
		t.Fatalf("only %d/%d delivered", okCount, packets)
	}
	per := float64(after-before) / packets
	// 3 hops: expect ~3 transmissions plus occasional retries.
	if per < 2.5 || per > 7 {
		t.Fatalf("%.1f transmissions per 3-hop packet", per)
	}
}

func TestRouteExpiry(t *testing.T) {
	dep := topology.Line(3, 7)
	net := buildRPL(t, dep, 6)
	if err := net.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !net.SinkRPL().HasRoute(2) {
		t.Skip("route never formed")
	}
	// Kill the origin: its DAO refreshes stop and the stored route must
	// expire after routeLifetime.
	net.KillNode(2)
	if err := net.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if net.SinkRPL().HasRoute(2) {
		t.Fatal("route to a dead node survived past its lifetime")
	}
	if _, err := net.SinkRPL().SendControl(2, "x", nil); err != rpl.ErrNoRoute {
		t.Fatalf("send over expired route = %v, want ErrNoRoute", err)
	}
}

func TestStaleDAOIgnored(t *testing.T) {
	dep := topology.Line(3, 7)
	net := buildRPL(t, dep, 7)
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	s := net.SinkRPL().Stats()
	if s.RouteCount == 0 {
		t.Skip("no routes formed")
	}
	// DAO sequence numbers only move forward; the estimator-driven
	// behaviour is covered by the integration runs — here just confirm
	// the stats surface is consistent.
	if s.DAOSent != 0 {
		t.Fatalf("sink originated %d DAOs; the sink advertises nothing", s.DAOSent)
	}
}

func TestRPLStatsSurface(t *testing.T) {
	dep := topology.Line(4, 7)
	net := buildRPL(t, dep, 8)
	if err := net.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if net.RPL(radio.NodeID(i)).Stats().DAOSent == 0 {
			t.Fatalf("node %d never advertised", i)
		}
	}
	if _, err := net.SinkRPL().SendControl(3, "x", nil); err != nil {
		t.Skip("no route yet")
	}
	if err := net.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var down uint64
	for i := 0; i < net.Dep.Len(); i++ {
		down += net.RPL(radio.NodeID(i)).Stats().DownSends
	}
	if down == 0 {
		t.Fatal("no downward transmissions recorded")
	}
}
