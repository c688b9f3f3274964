package experiment

import (
	"testing"
	"time"

	"teleadjust/internal/fault"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
)

// TestLongIndoorComparison runs the Fig-7/Table-III comparison on the
// WiFi-interfered indoor channel and asserts the paper's qualitative
// ordering: Drip and Re-Tele stay near-perfect, Tele close behind, RPL
// degrading hardest; Drip pays an order of magnitude more transmissions.
// Takes a couple of minutes; skipped under -short.
func TestLongIndoorComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("long reproduction test")
	}
	opts := DefaultControlOpts()
	opts.Warmup = 7 * time.Minute
	opts.Packets = 30
	opts.Interval = 20 * time.Second
	build := func(seed uint64) Scenario {
		s := Indoor(seed, true)
		s.TuneControlTimeouts(18 * time.Second)
		return s
	}
	results := map[Proto]*ControlResult{}
	for _, proto := range []Proto{ProtoTele, ProtoReTele, ProtoDrip, ProtoRPL} {
		res, err := ControlStudy(proto, opts).Replicate(build, []uint64{1, 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		results[proto] = res
		t.Logf("%-8s PDR=%5.1f%% tx/pkt=%6.2f duty=%5.2f%%",
			res.Proto, 100*res.PDR(), res.TxPerPacket, 100*res.AvgDutyCycle)
	}
	if pdr := results[ProtoDrip].PDR(); pdr < 0.95 {
		t.Errorf("Drip PDR %.2f under interference, want near-1 (paper: 0.997)", pdr)
	}
	if pdr := results[ProtoReTele].PDR(); pdr < 0.93 {
		t.Errorf("Re-Tele PDR %.2f, want ≥0.93 (paper: 0.993)", pdr)
	}
	if pdr := results[ProtoTele].PDR(); pdr < 0.90 {
		t.Errorf("Tele PDR %.2f, want ≥0.90 (paper: 0.969)", pdr)
	}
	// RPL must degrade below the TeleAdjusting variants under dynamics.
	if results[ProtoRPL].PDR() >= results[ProtoReTele].PDR() {
		t.Errorf("RPL PDR %.2f not below Re-Tele %.2f (paper: 0.901 vs 0.993)",
			results[ProtoRPL].PDR(), results[ProtoReTele].PDR())
	}
	// Flooding costs an order of magnitude more transmissions.
	if results[ProtoDrip].TxPerPacket < 5*results[ProtoTele].TxPerPacket {
		t.Errorf("Drip tx/packet %.1f not ≫ Tele %.1f (paper: 116 vs 4.6)",
			results[ProtoDrip].TxPerPacket, results[ProtoTele].TxPerPacket)
	}
	// And the most energy (duty cycle).
	if results[ProtoDrip].AvgDutyCycle <= results[ProtoTele].AvgDutyCycle {
		t.Errorf("Drip duty %.3f not above Tele %.3f (paper: 5.4%% vs least)",
			results[ProtoDrip].AvgDutyCycle, results[ProtoTele].AvgDutyCycle)
	}
}

// TestLongSparseConvergence verifies the Sparse-linear field (225 nodes,
// tens of hops) fully attaches and codes within 25 simulated minutes.
// Skipped under -short.
func TestLongSparseConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long reproduction test")
	}
	scn := SparseLinear(1)
	net, err := Build(scn.config(ProtoTeleAdjust))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	// Convergence-driven: the 45-column frontier advances at a variable
	// pace, so run in increments up to a one-hour cap and stop early once
	// the field is attached and coded.
	var attached, coded, maxHop int
	measure := func() {
		attached, coded, maxHop = 0, 0, 0
		for i := range net.Stacks {
			id := radio.NodeID(i)
			if id == net.Sink {
				continue
			}
			if h := net.CTPHops(id); h > 0 {
				attached++
				if h > maxHop {
					maxHop = h
				}
			}
			if _, ok := net.Tele(id).Code(); ok {
				coded++
			}
		}
	}
	for step := 0; step < 12; step++ {
		if err := net.Run(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		measure()
		if attached >= 213 && coded >= 220 {
			break
		}
	}
	t.Logf("attached=%d/224 coded=%d maxHop=%d at t=%v", attached, coded, maxHop, net.Eng.Now())
	if attached < 212 {
		t.Errorf("attached %d/224, want ≥95%%", attached)
	}
	if coded < 220 {
		t.Errorf("coded %d/224, want ≥98%%", coded)
	}
	if maxHop < 25 {
		t.Errorf("max hop %d; the sparse field should be tens of hops deep", maxHop)
	}
}

// TestLongChurnRobustness fails five nodes during the control phase and
// asserts the opportunistic protocol keeps delivering to the survivors
// while RPL's stored routes degrade — the paper's "robustness against
// network dynamics" claim taken further than the WiFi experiment.
// The churn is a scripted FaultPlan (one per seed, victims drawn from a
// seed-derived stream) so both protocols face the identical failure
// schedule. Skipped under -short.
func TestLongChurnRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("long reproduction test")
	}
	opts := DefaultControlOpts()
	opts.Warmup = 7 * time.Minute
	opts.Packets = 30
	opts.Interval = 20 * time.Second
	build := func(seed uint64) Scenario {
		s := Indoor(seed, false)
		s.TuneControlTimeouts(18 * time.Second)
		// Five crashes at 100 s spacing through the control phase,
		// victims picked without replacement from a per-seed stream.
		rng := sim.DeriveRNG(seed, 0x1c11)
		picked := map[int]bool{}
		plan := &fault.Plan{Name: "indoor-churn"}
		for k := 0; len(plan.Events) < 5 && k < 1000; k++ {
			v := rng.IntN(s.Dep.Len())
			if v == s.Dep.Sink || picked[v] {
				continue
			}
			picked[v] = true
			at := opts.Warmup + time.Duration(len(plan.Events)+1)*100*time.Second
			plan.Events = append(plan.Events, fault.Event{
				At: fault.Duration(at), Kind: fault.Crash, Node: v,
			})
		}
		s.Fault = plan
		return s
	}
	tele, err := ControlStudy(ProtoReTele, opts).Replicate(build, []uint64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rpl, err := ControlStudy(ProtoRPL, opts).Replicate(build, []uint64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("churn: Re-Tele PDR=%.1f%%, RPL PDR=%.1f%%", 100*tele.PDR(), 100*rpl.PDR())
	if tele.PDR() < 0.85 {
		t.Errorf("Re-Tele PDR %.2f under churn, want ≥0.85", tele.PDR())
	}
	if tele.PDR() <= rpl.PDR()-0.02 {
		t.Errorf("Re-Tele (%.2f) should not trail RPL (%.2f) under churn", tele.PDR(), rpl.PDR())
	}
}
