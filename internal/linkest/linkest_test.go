package linkest

import (
	"math"
	"testing"
	"time"

	"teleadjust/internal/radio"
)

func TestPerfectLink(t *testing.T) {
	e := New(DefaultConfig())
	for i := uint32(1); i <= 16; i++ {
		e.OnBeacon(1, i, time.Duration(i)*time.Second)
	}
	if q := e.InQuality(1); q != 1 {
		t.Fatalf("in quality = %v, want 1", q)
	}
	if etx := e.ETX(1); etx != 1 {
		t.Fatalf("ETX = %v, want 1", etx)
	}
}

func TestLossyLinkETX(t *testing.T) {
	e := New(DefaultConfig())
	// Receive every other beacon: quality 0.5, ETX = 1/(0.5*0.5) = 4.
	for i := uint32(2); i <= 64; i += 2 {
		e.OnBeacon(1, i, time.Duration(i)*time.Second)
	}
	q := e.InQuality(1)
	if q < 0.4 || q > 0.6 {
		t.Fatalf("in quality = %v, want ~0.5", q)
	}
	etx := e.ETX(1)
	if etx < 3 || etx > 5.5 {
		t.Fatalf("ETX = %v, want ~4", etx)
	}
}

func TestUnknownNeighbor(t *testing.T) {
	e := New(DefaultConfig())
	if e.ETX(9) != UnknownETX {
		t.Fatal("unknown neighbor should have UnknownETX")
	}
	if e.InQuality(9) != 0 {
		t.Fatal("unknown neighbor should have zero quality")
	}
	// A single beacon is below the window: still unknown ETX.
	e.OnBeacon(9, 1, time.Second)
	if e.ETX(9) != UnknownETX {
		t.Fatal("sub-window estimate should be unknown")
	}
	if !e.Known(9) {
		t.Fatal("neighbor should be in table after one beacon")
	}
}

func TestDataOutcomeImprovesEstimate(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	for i := uint32(1); i <= 16; i++ {
		e.OnBeacon(2, i, time.Duration(i)*time.Second)
	}
	before := e.ETX(2) // 1.0: symmetric assumption
	// Unicast acks mostly fail: outbound quality collapses.
	for i := 0; i < 20; i++ {
		e.OnDataOutcome(2, i%5 == 0, 20*time.Second)
	}
	after := e.ETX(2)
	if after <= before {
		t.Fatalf("ETX %v -> %v; failed acks must worsen the estimate", before, after)
	}
}

func TestDuplicateBeaconIgnored(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 20; i++ {
		e.OnBeacon(3, 7, time.Second) // same seq over and over
	}
	// One real reception, no window progress: quality still unknown.
	if e.ETX(3) != UnknownETX {
		t.Fatalf("duplicates should not build an estimate, got ETX %v", e.ETX(3))
	}
}

func TestSequenceWrap(t *testing.T) {
	e := New(DefaultConfig())
	start := uint32(math.MaxUint32 - 4)
	for i := uint32(0); i < 16; i++ {
		e.OnBeacon(4, start+i, time.Duration(i)*time.Second)
	}
	if q := e.InQuality(4); q != 1 {
		t.Fatalf("quality across wrap = %v, want 1", q)
	}
}

func TestEvictionCapsTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntries = 4
	e := New(cfg)
	for id := 0; id < 10; id++ {
		for i := uint32(1); i <= 8; i++ {
			e.OnBeacon(radio.NodeID(id), i, time.Duration(i)*time.Second)
		}
	}
	if e.Len() > 4 {
		t.Fatalf("table size %d exceeds cap 4", e.Len())
	}
}

func TestStaleEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntries = 2
	cfg.StaleAfter = 10 * time.Second
	e := New(cfg)
	for i := uint32(1); i <= 8; i++ {
		e.OnBeacon(1, i, time.Duration(i)*time.Second)
		e.OnBeacon(2, i, time.Duration(i)*time.Second)
	}
	// Much later, a new neighbor appears; the stale ones must make room.
	e.OnBeacon(3, 1, time.Hour)
	if !e.Known(3) {
		t.Fatal("new neighbor not admitted after stale eviction")
	}
}

func TestEachVisitsUsableNeighborsWithETX(t *testing.T) {
	e := New(DefaultConfig())
	// Neighbor 1: perfect. Neighbor 2: half. Neighbor 3: one beacon, no
	// estimate yet.
	for i := uint32(1); i <= 16; i++ {
		e.OnBeacon(1, i, time.Duration(i)*time.Second)
	}
	for i := uint32(2); i <= 32; i += 2 {
		e.OnBeacon(2, i, time.Duration(i)*time.Second)
	}
	e.OnBeacon(3, 1, time.Second)
	got := map[radio.NodeID]float64{}
	e.Each(func(id radio.NodeID, etx float64) {
		if _, dup := got[id]; dup {
			t.Fatalf("neighbor %d visited twice", id)
		}
		got[id] = etx
	})
	// Without data feedback ETX is 1/q² of the inbound quality q.
	q2 := e.InQuality(2)
	want := map[radio.NodeID]float64{1: 1, 2: 1 / (q2 * q2)}
	if len(got) != len(want) || got[2] <= got[1] {
		t.Fatalf("visited %v, want neighbors 1 and 2 with ETX(1) < ETX(2)", got)
	}
	for id, etx := range want {
		if got[id] != etx || e.ETX(id) != etx {
			t.Fatalf("neighbor %d: visited ETX %v, ETX() %v, want %v", id, got[id], e.ETX(id), etx)
		}
	}
}

func TestForget(t *testing.T) {
	e := New(DefaultConfig())
	for i := uint32(1); i <= 8; i++ {
		e.OnBeacon(1, i, time.Duration(i)*time.Second)
	}
	e.Forget(1)
	if e.Known(1) {
		t.Fatal("neighbor known after Forget")
	}
}

func TestProvisionalEstimateAfterTwoBeacons(t *testing.T) {
	e := New(DefaultConfig())
	e.OnBeacon(5, 1, time.Second)
	if e.ETX(5) != UnknownETX {
		t.Fatal("one beacon should not yield an estimate")
	}
	e.OnBeacon(5, 2, 2*time.Second)
	if e.ETX(5) == UnknownETX {
		t.Fatal("two consecutive beacons should yield a provisional estimate")
	}
	if q := e.InQuality(5); q != 1 {
		t.Fatalf("provisional quality = %v, want 1", q)
	}
}

func TestProvisionalEstimateReflectsLoss(t *testing.T) {
	e := New(DefaultConfig())
	e.OnBeacon(5, 1, time.Second)
	e.OnBeacon(5, 4, 2*time.Second) // missed 2 and 3
	q := e.InQuality(5)
	if q < 0.3 || q > 0.7 {
		t.Fatalf("provisional quality = %v, want ~0.5", q)
	}
}

func TestOutboundFloorAllowsRecovery(t *testing.T) {
	e := New(DefaultConfig())
	for i := uint32(1); i <= 16; i++ {
		e.OnBeacon(2, i, time.Duration(i)*time.Second)
	}
	// A long failure streak must not make the link permanently unusable.
	for i := 0; i < 50; i++ {
		e.OnDataOutcome(2, false, 20*time.Second)
	}
	if e.ETX(2) == UnknownETX {
		t.Fatal("failure streak pushed the link to Unknown; retries are impossible")
	}
	// Successes bring it back.
	for i := 0; i < 50; i++ {
		e.OnDataOutcome(2, true, 30*time.Second)
	}
	if etx := e.ETX(2); etx > 3 {
		t.Fatalf("link did not recover after successes: ETX %v", etx)
	}
}

func TestMissPenaltyCapped(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	for i := uint32(1); i <= 16; i++ {
		e.OnBeacon(3, i, time.Duration(i)*time.Second)
	}
	before := e.InQuality(3)
	// One congested episode: a huge sequence gap in a single beacon.
	e.OnBeacon(3, 60, 30*time.Second)
	after := e.InQuality(3)
	// The gap folds at most one window of misses: quality must not
	// collapse to near zero from a single event.
	if after < before*0.3 {
		t.Fatalf("single gap collapsed quality %v -> %v", before, after)
	}
}
