package ctp

// White-box tests of the parent-selection and loop-recovery machinery,
// driving evaluate/refreshCost/handleBeacon directly with crafted
// neighbor state.

import (
	"math"
	"slices"
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

// feedEstimate gives the neighbour table a usable link to id with
// quality ~1.
func feedEstimate(c *CTP, id radio.NodeID, beacons int) {
	n := c.entry(id)
	for i := 1; i <= beacons; i++ {
		n.link.OnBeacon(uint32(i))
	}
}

// advertise sets the last advertisement of id, which must be in the
// neighbour table.
func advertise(c *CTP, id radio.NodeID, ad advert) {
	n := c.lookup(id)
	n.ad, n.hasAd = ad, true
}

func TestEvaluateAdoptsBestCandidate(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
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
	advertise(c, 1, advert{pathETX: 2, parent: c.node.ID(), hops: 2})
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatalf("adopted a node that routes through us: parent=%v", c.Parent())
	}
}

func TestEvaluateSkipsDeepHopCount(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: cfg.MaxTHL})
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatal("adopted a candidate at the hop bound (loop symptom)")
	}
}

func TestEvaluateSkipsCostBeyondBound(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	advertise(c, 1, advert{pathETX: cfg.MaxPathETX + 1, parent: NoParent, hops: 2})
	c.evaluate()
	if c.Parent() != NoParent {
		t.Fatal("adopted a candidate beyond the validity bound")
	}
}

func TestDetachOnCostBlowup(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
	c.evaluate()
	if c.Parent() != 1 {
		t.Fatal("setup failed")
	}
	var events []radio.NodeID
	c.OnParentChange(func(old, new radio.NodeID) { events = append(events, new) })
	// The parent's advertised cost explodes (count-to-infinity echo).
	c.lookup(1).ad.pathETX = cfg.MaxPathETX + 10
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
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
	c.evaluate()
	before := c.PathETX()
	// Parent's cost rises moderately; ours must track it even when no
	// better candidate exists (the stale-self-cost loop fuel).
	c.lookup(1).ad.pathETX = 8
	c.evaluate()
	if c.PathETX() <= before {
		t.Fatalf("cost did not track parent ad: %v -> %v", before, c.PathETX())
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	feedEstimate(c, 1, 8)
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
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
	advertise(c, 7, advert{pathETX: cur - 1 - parentSwitchThreshold/2, parent: NoParent, hops: 1})
	c.evaluate()
	if switches != 0 {
		t.Fatalf("switched on a sub-threshold improvement (cur=%v)", cur)
	}
	// A decisive improvement must switch.
	c.lookup(7).ad.pathETX = 0.1
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
	advertise(sink, 1, advert{pathETX: 0.5, parent: NoParent, hops: 1})
	sink.evaluate()
	if sink.Parent() != NoParent || sink.PathETX() != 0 {
		t.Fatal("sink adopted a parent")
	}
}

func TestDatapathLoopDetectionCrossSender(t *testing.T) {
	_, c := bareCTP(t, DefaultConfig())
	feedEstimate(c, 1, 8)
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
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
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
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
	advertise(c, 1, advert{pathETX: 2, parent: NoParent, hops: 2})
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

// hear delivers a beacon from id to c at sim time at, running c's engine
// there first. The neighbor advertises path cost pathETX, one hop and no
// parent.
func hear(t *testing.T, eng *sim.Engine, c *CTP, at time.Duration, id radio.NodeID, seq uint32, pathETX float64) {
	t.Helper()
	if err := eng.Run(at); err != nil {
		t.Fatal(err)
	}
	c.handleBeacon(id, &Beacon{Seq: seq, PathETX: pathETX, Parent: NoParent, Hops: 1})
	if len(c.nbrIDs) > maxNeighbors || len(c.nbrs) != len(c.nbrIDs) {
		t.Fatalf("neighbour table holds %d ids and %d entries, cap %d", len(c.nbrIDs), len(c.nbrs), maxNeighbors)
	}
}

// tableIDs returns the ids in c's neighbour table, sorted.
func tableIDs(c *CTP) []radio.NodeID {
	ids := slices.Clone(c.nbrIDs)
	slices.Sort(ids)
	return ids
}

// TestEvictionCapsTable has 40 neighbors beacon once each: the table never
// holds more than maxNeighbors entries, and since no entry has a settled
// window all rank alike, so each newcomer evicts the lowest id.
func TestEvictionCapsTable(t *testing.T) {
	eng, c := bareCTP(t, DefaultConfig())
	for id := radio.NodeID(1); id <= 40; id++ {
		hear(t, eng, c, 0, id, 1, 2)
	}
	var want []radio.NodeID
	for id := radio.NodeID(40 - maxNeighbors + 1); id <= 40; id++ {
		want = append(want, id)
	}
	if got := tableIDs(c); !slices.Equal(got, want) {
		t.Fatalf("table holds %v, want %v", got, want)
	}
}

// TestStaleEviction checks the order a full table drops entries in:
// every stale entry first, then the lowest link rank (an unsettled entry
// below any settled one), ties to the lowest id.
func TestStaleEviction(t *testing.T) {
	eng, c := bareCTP(t, DefaultConfig())
	// Neighbors 1..32 settle a window each: 20 and 25 hear every other
	// beacon (quality 5/9), the rest every one (quality 1).
	for id := radio.NodeID(1); id <= maxNeighbors; id++ {
		beacons, step, rank := 8, uint32(1), 1.0
		if id == 20 || id == 25 {
			beacons, step, rank = 5, 2, 5.0/9
		}
		for k := 0; k < beacons; k++ {
			hear(t, eng, c, 0, id, 1+uint32(k)*step, 2)
		}
		if got := c.lookup(id).link.Rank(); got != rank {
			t.Fatalf("neighbor %d ranks %v, want %v", id, got, rank)
		}
	}
	// Newcomer 33: the tie at 5/9 goes to the lower id.
	hear(t, eng, c, time.Minute, 33, 1, 2)
	if c.lookup(20) != nil {
		t.Fatal("20 (lowest quality, lower id of a tie) not evicted")
	}
	if c.lookup(25) == nil {
		t.Fatal("25 evicted on the tie with 20")
	}
	// Newcomer 34: 33's single beacon settled no window, so it ranks
	// below 25.
	hear(t, eng, c, time.Minute, 34, 1, 2)
	if c.lookup(33) != nil {
		t.Fatal("unsettled 33 not evicted before 25")
	}
	// Everyone but 1 and 2 beacons again past staleAfter (a sequence gap
	// too long to count as misses): 1 and 2 go stale, and newcomer 35
	// evicts both, not the lowest rank (25, 34).
	later := staleAfter + 2*time.Minute
	for id := radio.NodeID(3); id <= 34; id++ {
		if c.lookup(id) != nil {
			hear(t, eng, c, later, id, 100, 2)
		}
	}
	hear(t, eng, c, later, 35, 1, 2)
	if len(c.nbrIDs) != maxNeighbors-1 {
		t.Fatalf("table holds %d entries after dropping two stale ones, want %d", len(c.nbrIDs), maxNeighbors-1)
	}
	for _, id := range []radio.NodeID{1, 2} {
		if c.lookup(id) != nil {
			t.Fatalf("stale %d not evicted", id)
		}
	}
	for _, id := range []radio.NodeID{25, 34, 35} {
		if c.lookup(id) == nil {
			t.Fatalf("%d evicted while stale entries were there to drop", id)
		}
	}
}

// TestEvictedParentIsNoCostSource evicts a node's parent and checks that
// the node detaches, and that the evicted neighbor is no candidate again
// until two new beacons rebuild an estimate.
func TestEvictedParentIsNoCostSource(t *testing.T) {
	eng, c := bareCTP(t, DefaultConfig())
	for seq := uint32(1); seq <= 8; seq++ {
		hear(t, eng, c, 0, 1, seq, 1)
	}
	if c.Parent() != 1 {
		t.Fatalf("parent = %v, want 1", c.Parent())
	}
	// 31 unattached neighbors fill the table; past staleAfter they beacon
	// again, and 1, silent, is stale.
	inf := math.Inf(1)
	for id := radio.NodeID(2); id <= maxNeighbors; id++ {
		for seq := uint32(1); seq <= 8; seq++ {
			hear(t, eng, c, 0, id, seq, inf)
		}
	}
	later := staleAfter + time.Minute
	for id := radio.NodeID(2); id <= maxNeighbors; id++ {
		hear(t, eng, c, later, id, 9, inf)
	}
	if c.Parent() != 1 {
		t.Fatal("parent dropped while still in the table")
	}
	hear(t, eng, c, later, 33, 1, inf)
	if _, _, _, ok := c.NeighborAd(1); ok {
		t.Fatal("evicted parent's advertisement still held")
	}
	if c.Parent() != NoParent || !math.IsInf(c.currentCost(), 1) {
		t.Fatalf("parent %v at cost %v after its eviction, want none", c.Parent(), c.currentCost())
	}
	// One beacon re-adds 1 without a usable estimate.
	hear(t, eng, c, later, 1, 9, 1)
	if best := c.bestCandidate(); best.id != NoParent || c.Parent() != NoParent {
		t.Fatalf("re-added 1 used after one beacon: candidate %v, parent %v", best.id, c.Parent())
	}
	hear(t, eng, c, later, 1, 10, 1)
	if c.Parent() != 1 || c.PathETX() != 2 {
		t.Fatalf("parent %v at cost %v after two new beacons, want 1 at 2", c.Parent(), c.PathETX())
	}
}

// TestEvictionDropsEveryStaleEntry makes the first and the last four
// entries of a full table stale: a newcomer drops all five, including the
// stale entries a removal moves into a slot the sweep has just visited.
func TestEvictionDropsEveryStaleEntry(t *testing.T) {
	eng, c := bareCTP(t, DefaultConfig())
	for id := radio.NodeID(1); id <= maxNeighbors; id++ {
		hear(t, eng, c, 0, id, 1, 2)
	}
	later := staleAfter + time.Minute
	var want []radio.NodeID
	for id := radio.NodeID(2); id <= maxNeighbors-4; id++ {
		hear(t, eng, c, later, id, 2, 2)
		want = append(want, id)
	}
	hear(t, eng, c, later, 40, 1, 2)
	want = append(want, 40)
	if got := tableIDs(c); !slices.Equal(got, want) {
		t.Fatalf("table holds %v, want %v", got, want)
	}
}
