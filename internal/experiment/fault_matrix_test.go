package experiment

import (
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/fault"
	"teleadjust/internal/telemetry"
)

// matrixChurnPlan is the shared fault script of the cross-protocol churn
// matrix: an end-of-line crash with a later reboot, a lossy broadcast
// window mid-line, and a degraded (but not severed) link — all inside the
// control phase of a smallScenario study (2-minute warmup). Times are
// absolute simulation times.
func matrixChurnPlan() *fault.Plan {
	return &fault.Plan{
		Name: "matrix-churn",
		Events: []fault.Event{
			{At: fault.Duration(130 * time.Second), Kind: fault.Crash, Node: 7},
			{At: fault.Duration(140 * time.Second), Kind: fault.Drop, From: 2, To: 3, Prob: 0.3, Dst: fault.DstBcast, For: fault.Duration(40 * time.Second)},
			{At: fault.Duration(150 * time.Second), Kind: fault.Link, From: 3, To: 4, OffsetDB: -6, Both: true, For: fault.Duration(40 * time.Second)},
			{At: fault.Duration(190 * time.Second), Kind: fault.Reboot, Node: 7},
		},
	}
}

// TestFaultMatrixAcrossProtocols runs the same fault script against every
// protocol of the paper's comparison and asserts the survival properties
// that must hold regardless of protocol: the study completes, packets
// flow, the rebooted node re-attaches, and the tree recovers. For the
// TeleAdjusting variants the protocol invariant oracle rides along on the
// radio trace and must stay clean through every fault epoch.
func TestFaultMatrixAcrossProtocols(t *testing.T) {
	opts := ControlOpts{
		Warmup:   2 * time.Minute,
		Packets:  6,
		Interval: 16 * time.Second,
		Drain:    40 * time.Second,
	}
	plan := matrixChurnPlan()
	for _, proto := range []Proto{ProtoTele, ProtoReTele, ProtoDrip, ProtoRPL} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			scn := smallScenario(21)
			scn.Fault = plan
			var net *Net
			var orc *fault.Oracle
			tele := proto == ProtoTele || proto == ProtoReTele
			scn.OnNetBuilt = func(n *Net) {
				net = n
				if !tele {
					return
				}
				orc = fault.NewOracle(fault.OracleConfig{
					NumNodes:       n.Dep.Len(),
					Sink:           n.Sink,
					RetryRounds:    scn.Tele.RetryRounds,
					Backtracks:     scn.Tele.Backtracks,
					ControlTimeout: scn.Tele.ControlTimeout,
					RescueEnabled:  proto == ProtoReTele,
				})
				orc.TeleAt = n.Tele
				orc.Alive = n.Alive
				orc.Now = n.Eng.Now
				n.Bus.Subscribe(orc, telemetry.LayerRadio)
			}
			res, err := RunControlStudy(scn, proto, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent == 0 {
				t.Fatal("nothing sent through the fault script")
			}
			// Every plan event fired, plus one closing edge per bounded
			// window (the drop and link events above).
			if inj := net.FaultInjector(); inj == nil {
				t.Fatal("scenario plan did not install an injector")
			} else if inj.Applied() != len(plan.Events)+2 {
				t.Fatalf("injector applied %d fault edges, want %d", inj.Applied(), len(plan.Events)+2)
			}
			if !net.Alive(7) {
				t.Fatal("node 7 still dead after the scripted reboot")
			}
			if h := net.CTPHops(7); h <= 0 {
				t.Fatalf("rebooted node 7 not re-attached (hops %d)", h)
			}
			if c := net.TreeCoverage(); c < 0.85 {
				t.Fatalf("tree coverage %.2f after the churn script", c)
			}
			if orc != nil {
				if v := orc.Check(); len(v) != 0 {
					t.Fatalf("oracle violations under %s:\n%s", proto, orc.Summary())
				}
				if _, ok := net.Tele(7).Code(); !ok {
					t.Error("rebooted node 7 did not regain a path code")
				}
			}
			t.Logf("%s: sent=%d delivered=%d skipped=%d coverage=%.2f",
				proto, res.Sent, res.Delivered, res.Skipped, net.TreeCoverage())
		})
	}
}

// TestFaultMatrixAcrossCodecs re-runs the same churn script once per
// registered tree-coding codec under ReTeleAdjusting, with the invariant
// oracle riding the radio trace. The crash/loss/degradation/reboot sequence
// must leave every codec's tree consistent — the variable-length codecs'
// relabel paths get exercised by node 7's re-join, not just the paper's
// fixed-width extension path.
func TestFaultMatrixAcrossCodecs(t *testing.T) {
	opts := ControlOpts{
		Warmup:   2 * time.Minute,
		Packets:  6,
		Interval: 16 * time.Second,
		Drain:    40 * time.Second,
	}
	plan := matrixChurnPlan()
	for _, codec := range core.CodecNames() {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			scn := smallScenario(21)
			scn.Codec = codec
			scn.Fault = plan
			var net *Net
			var orc *fault.Oracle
			scn.OnNetBuilt = func(n *Net) {
				net = n
				orc = fault.NewOracle(fault.OracleConfig{
					NumNodes:       n.Dep.Len(),
					Sink:           n.Sink,
					RetryRounds:    scn.Tele.RetryRounds,
					Backtracks:     scn.Tele.Backtracks,
					ControlTimeout: scn.Tele.ControlTimeout,
					RescueEnabled:  true,
				})
				orc.TeleAt = n.Tele
				orc.Alive = n.Alive
				orc.Now = n.Eng.Now
				n.Bus.Subscribe(orc, telemetry.LayerRadio)
			}
			res, err := RunControlStudy(scn, ProtoReTele, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent == 0 {
				t.Fatal("nothing sent through the fault script")
			}
			if inj := net.FaultInjector(); inj == nil {
				t.Fatal("scenario plan did not install an injector")
			} else if inj.Applied() != len(plan.Events)+2 {
				t.Fatalf("injector applied %d fault edges, want %d", inj.Applied(), len(plan.Events)+2)
			}
			if !net.Alive(7) {
				t.Fatal("node 7 still dead after the scripted reboot")
			}
			if h := net.CTPHops(7); h <= 0 {
				t.Fatalf("rebooted node 7 not re-attached (hops %d)", h)
			}
			if c := net.TreeCoverage(); c < 0.85 {
				t.Fatalf("tree coverage %.2f after the churn script", c)
			}
			if v := orc.Check(); len(v) != 0 {
				t.Fatalf("oracle violations under codec %s:\n%s", codec, orc.Summary())
			}
			if _, ok := net.Tele(7).Code(); !ok {
				t.Error("rebooted node 7 did not regain a path code")
			}
			t.Logf("%s: sent=%d delivered=%d skipped=%d coverage=%.2f",
				codec, res.Sent, res.Delivered, res.Skipped, net.TreeCoverage())
		})
	}
}

// TestRebootedNodeCountsDeliveries crashes nodes 7 and 6 just after the
// control phase starts and reboots them five seconds later, so most
// probes reach a stack built by RebootNode. Every op whose end-to-end ack
// came back was consumed by its destination, so the delivery count must
// cover the acked ones: a rebooted stack must report its deliveries like
// the original did.
func TestRebootedNodeCountsDeliveries(t *testing.T) {
	opts := ControlOpts{
		Warmup:   90 * time.Second,
		Packets:  40,
		Interval: 16 * time.Second,
		Drain:    30 * time.Second,
	}
	plan := &fault.Plan{
		Name: "reboot-early",
		Events: []fault.Event{
			{At: fault.Duration(95 * time.Second), Kind: fault.Crash, Node: 7},
			{At: fault.Duration(96 * time.Second), Kind: fault.Crash, Node: 6},
			{At: fault.Duration(100 * time.Second), Kind: fault.Reboot, Node: 7},
			{At: fault.Duration(101 * time.Second), Kind: fault.Reboot, Node: 6},
		},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		scn := smallScenario(seed)
		scn.Fault = plan
		res, err := RunControlStudy(scn, ProtoTeleAdjust, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.AckedOK == 0 || res.Delivered < res.AckedOK {
			t.Errorf("seed %d: delivered %d, acked %d", seed, res.Delivered, res.AckedOK)
		}
	}
}
