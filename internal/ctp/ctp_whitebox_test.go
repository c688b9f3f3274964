package ctp

// White-box tests of the parent-selection and loop-recovery machinery,
// driving evaluate/refreshCost/handleBeacon directly with crafted
// neighbor state.

import (
	"math"
	"testing"
	"time"

	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// bareCTP builds a CTP instance on a 2-node medium without starting it.
func bareCTP(t testing.TB, cfg Config) (*sim.Engine, *CTP) {
	t.Helper()
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mac.New(eng, med.Radio(0), mac.DefaultConfig(), sim.NewRNG(1), nil)
	n := node.New(eng, m)
	return eng, New(n, cfg, sim.NewRNG(2), false)
}

// feedEstimate gives the estimator a usable link to id with quality ~1.
func feedEstimate(c *CTP, id radio.NodeID, beacons int) {
	for i := 1; i <= beacons; i++ {
		c.est.OnBeacon(id, uint32(i), time.Duration(i)*time.Second)
	}
}

func TestEvaluateAdoptsBestCandidate(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	if c.Parent() != 1 {
		t.Fatalf("parent = %v, want 1", c.Parent())
	}
	if c.PathETX() < 2 || c.PathETX() > 4 {
		t.Fatalf("pathETX = %v, want ~3", c.PathETX())
	}
	if c.Hops() != 3 {
		t.Fatalf("hops = %d, want 3", c.Hops())
	}
}

func TestEvaluateSkipsImmediateLoop(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	// Candidate 1 claims THIS node as its parent: must not be adopted.
	c.ads[1] = &neighborAd{pathETX: 2, parent: c.node.ID(), hops: 2}
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatalf("adopted a node that routes through us: parent=%v", c.Parent())
	}
}

func TestEvaluateSkipsDeepHopCount(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: cfg.MaxTHL}
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatal("adopted a candidate at the hop bound (loop symptom)")
	}
}

func TestEvaluateSkipsCostBeyondBound(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: cfg.MaxPathETX + 1, parent: NoParent, hops: 2}
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatal("adopted a candidate beyond the validity bound")
	}
}

func TestDetachOnCostBlowup(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	if c.Parent() != 1 {
		t.Fatal("setup failed")
	}
	var events []radio.NodeID
	c.OnParentChange(func(old, new radio.NodeID) { events = append(events, new) })
	// The parent's advertised cost explodes (count-to-infinity echo).
	c.ads[1].pathETX = cfg.MaxPathETX + 10
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatalf("still attached at cost %v", c.PathETX())
	}
	if !math.IsInf(c.PathETX(), 1) {
		t.Fatalf("detached node advertises %v, want +Inf", c.PathETX())
	}
	if len(events) != 1 || events[0] != NoParent {
		t.Fatalf("parent-change events = %v", events)
	}
}

func TestRefreshCostTracksParentAd(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	before := c.PathETX()
	// Parent's cost rises moderately; ours must track it even when no
	// better candidate exists (the stale-self-cost loop fuel).
	c.ads[1].pathETX = 8
	c.evaluate()
	if c.PathETX() <= before {
		t.Fatalf("cost did not track parent ad: %v -> %v", before, c.PathETX())
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	// A second candidate marginally better than the current cost must NOT
	// trigger a switch (below the threshold).
	if c.Parent() != 1 {
		t.Fatal("setup failed")
	}
	switches := 0
	c.OnParentChange(func(old, new radio.NodeID) { switches++ })
	feedEstimate(c, 7, 9)
	cur := c.currentCost()
	c.ads[7] = &neighborAd{pathETX: cur - 1 - parentSwitchThreshold/2, parent: NoParent, hops: 1}
	c.evaluate()
	if switches != 0 {
		t.Fatalf("switched on a sub-threshold improvement (cur=%v)", cur)
	}
	// A decisive improvement must switch.
	c.ads[7].pathETX = 0.1
	c.evaluate()
	if switches != 1 || c.Parent() != 7 {
		t.Fatalf("did not switch on a decisive improvement: switches=%d parent=%v", switches, c.Parent())
	}
}

func TestSinkNeverEvaluates(t *testing.T) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mac.New(eng, med.Radio(0), mac.DefaultConfig(), sim.NewRNG(1), nil)
	n := node.New(eng, m)
	sink := New(n, DefaultConfig(), sim.NewRNG(2), true)
	feedEstimate(sink, 1, 8)
	sink.ads[1] = &neighborAd{pathETX: 0.5, parent: NoParent, hops: 1}
	sink.evaluate()
	if sink.Parent() != NoParent || sink.PathETX() != 0 {
		t.Fatal("sink adopted a parent")
	}
}

func TestDatapathLoopDetectionCrossSender(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	if c.Parent() != 1 {
		t.Fatal("setup failed")
	}
	d := &Data{Origin: 9, OriginSeq: 5, THL: 3}
	c.handleData(7, d) // first copy from child 7: forwarded
	if c.Parent() != 1 {
		t.Fatal("first copy must not detach")
	}
	// Same packet again from the SAME child: upstream retransmission,
	// harmless.
	c.handleData(7, d)
	if c.Parent() != 1 {
		t.Fatal("same-sender duplicate must not detach")
	}
	// Similar depth via an alternate path (lost-ack duplicate after a
	// parent switch): harmless.
	alt := &Data{Origin: 9, OriginSeq: 5, THL: 5}
	c.handleData(8, alt)
	if c.Parent() != 1 {
		t.Fatal("near-depth alternate-path duplicate must not detach")
	}
	// The packet returns having circled a cycle (≥3 extra hops): loop.
	looped := &Data{Origin: 9, OriginSeq: 5, THL: 6}
	c.handleData(8, looped)
	if c.Parent() != NoParent {
		t.Fatal("higher-THL cross-sender duplicate did not break the loop")
	}
}

func TestDatapathLoopDetectionOwnPacket(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	own := &Data{Origin: c.node.ID(), OriginSeq: 1, THL: 4}
	c.handleData(5, own)
	if c.Parent() != NoParent {
		t.Fatal("receiving our own packet did not break the loop")
	}
}

func TestTHLExhaustionDetaches(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	c.ads[1] = &neighborAd{pathETX: 2, parent: NoParent, hops: 2}
	c.evaluate()
	d := &Data{Origin: 9, OriginSeq: 5, THL: cfg.MaxTHL}
	c.handleData(7, d)
	if c.Parent() != NoParent {
		t.Fatal("THL-exhausted packet did not break the loop")
	}
	if c.Stats().DroppedTHL != 1 {
		t.Fatal("THL drop not counted")
	}
}

func TestSinkNeverDetachesOnLoopEvidence(t *testing.T) {
	eng := sim.NewEngine()
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mac.New(eng, med.Radio(0), mac.DefaultConfig(), sim.NewRNG(1), nil)
	n := node.New(eng, m)
	sink := New(n, DefaultConfig(), sim.NewRNG(2), true)
	d := &Data{Origin: 9, OriginSeq: 5}
	sink.handleData(7, d)
	sink.handleData(8, d) // dup from another sender: sink just drops it
	if sink.Stats().DroppedDup != 1 {
		t.Fatal("sink dedup broken")
	}
	if !sink.HasRoute() {
		t.Fatal("sink lost its (implicit) route")
	}
}
