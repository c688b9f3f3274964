package linkest

import (
	"math"
	"testing"
)

// beacons feeds l the beacon sequence numbers from, from+step, ... up to
// and including to.
func beacons(l *Link, from, to, step uint32) {
	for seq := from; seq <= to; seq += step {
		l.OnBeacon(seq)
	}
}

// inQuality returns l's inbound estimate, 0 when it has none.
func inQuality(l *Link) float64 {
	q, _ := l.inQualityOf()
	return q
}

func TestPerfectLink(t *testing.T) {
	var l Link
	beacons(&l, 1, 16, 1)
	if q := inQuality(&l); q != 1 {
		t.Fatalf("in quality = %v, want 1", q)
	}
	if etx := l.ETX(); etx != 1 {
		t.Fatalf("ETX = %v, want 1", etx)
	}
}

func TestLossyLinkETX(t *testing.T) {
	var l Link
	// Receive every other beacon: quality 0.5, ETX = 1/(0.5*0.5) = 4.
	beacons(&l, 2, 64, 2)
	q := inQuality(&l)
	if q < 0.4 || q > 0.6 {
		t.Fatalf("in quality = %v, want ~0.5", q)
	}
	etx := l.ETX()
	if etx < 3 || etx > 5.5 {
		t.Fatalf("ETX = %v, want ~4", etx)
	}
}

func TestUnknownNeighbor(t *testing.T) {
	var l Link
	if l.ETX() != UnknownETX {
		t.Fatal("unheard link should have UnknownETX")
	}
	if _, have := l.inQualityOf(); have {
		t.Fatal("unheard link should have no quality")
	}
	// A single beacon is below the window: still unknown ETX.
	l.OnBeacon(1)
	if l.ETX() != UnknownETX {
		t.Fatal("sub-window estimate should be unknown")
	}
}

func TestDataOutcomeImprovesEstimate(t *testing.T) {
	var l Link
	beacons(&l, 1, 16, 1)
	before := l.ETX() // 1.0: symmetric assumption
	// Unicast acks mostly fail: outbound quality collapses.
	for i := 0; i < 20; i++ {
		l.OnDataOutcome(i%5 == 0)
	}
	after := l.ETX()
	if after <= before {
		t.Fatalf("ETX %v -> %v; failed acks must worsen the estimate", before, after)
	}
}

func TestDuplicateBeaconIgnored(t *testing.T) {
	var l Link
	for i := 0; i < 20; i++ {
		l.OnBeacon(7) // same seq over and over
	}
	// One real reception, no window progress: quality still unknown.
	if l.ETX() != UnknownETX {
		t.Fatalf("duplicates should not build an estimate, got ETX %v", l.ETX())
	}
}

func TestSequenceWrap(t *testing.T) {
	var l Link
	start := uint32(math.MaxUint32 - 4)
	for i := uint32(0); i < 16; i++ {
		l.OnBeacon(start + i)
	}
	if q := inQuality(&l); q != 1 {
		t.Fatalf("quality across wrap = %v, want 1", q)
	}
}

// TestETXIsInverseSquareWithoutData checks that without data feedback
// ETX is 1/q² of the inbound quality q, so a half-heard link costs more
// than a perfect one.
func TestETXIsInverseSquareWithoutData(t *testing.T) {
	var perfect, half Link
	beacons(&perfect, 1, 16, 1)
	beacons(&half, 2, 32, 2)
	q := inQuality(&half)
	if perfect.ETX() != 1 || half.ETX() != 1/(q*q) {
		t.Fatalf("ETX %v and %v, want 1 and 1/q² = %v", perfect.ETX(), half.ETX(), 1/(q*q))
	}
	if half.ETX() <= perfect.ETX() {
		t.Fatalf("half-heard ETX %v not above perfect %v", half.ETX(), perfect.ETX())
	}
}

// TestRank checks the eviction order key: 0.01 until a beacon window has
// folded in (a provisional estimate does not count), then the smoothed
// inbound quality.
func TestRank(t *testing.T) {
	var l Link
	if r := l.Rank(); r != 0.01 {
		t.Fatalf("unheard link ranks %v, want 0.01", r)
	}
	beacons(&l, 1, 7, 1)
	if l.ETX() == UnknownETX || l.Rank() != 0.01 {
		t.Fatalf("provisional link: ETX %v, rank %v; want an estimate and rank 0.01", l.ETX(), l.Rank())
	}
	l.OnBeacon(8)
	if r := l.Rank(); r != 1 {
		t.Fatalf("settled perfect link ranks %v, want 1", r)
	}
}

func TestProvisionalEstimateAfterTwoBeacons(t *testing.T) {
	var l Link
	l.OnBeacon(1)
	if l.ETX() != UnknownETX {
		t.Fatal("one beacon should not yield an estimate")
	}
	l.OnBeacon(2)
	if l.ETX() == UnknownETX {
		t.Fatal("two consecutive beacons should yield a provisional estimate")
	}
	if q := inQuality(&l); q != 1 {
		t.Fatalf("provisional quality = %v, want 1", q)
	}
}

func TestProvisionalEstimateReflectsLoss(t *testing.T) {
	var l Link
	l.OnBeacon(1)
	l.OnBeacon(4) // missed 2 and 3
	q := inQuality(&l)
	if q < 0.3 || q > 0.7 {
		t.Fatalf("provisional quality = %v, want ~0.5", q)
	}
}

func TestOutboundFloorAllowsRecovery(t *testing.T) {
	var l Link
	beacons(&l, 1, 16, 1)
	// A long failure streak must not make the link permanently unusable.
	for i := 0; i < 50; i++ {
		l.OnDataOutcome(false)
	}
	if l.ETX() == UnknownETX {
		t.Fatal("failure streak pushed the link to Unknown; retries are impossible")
	}
	if l.outQuality != 0.1 {
		t.Fatalf("outbound quality after a failure streak = %v, want the 0.1 floor", l.outQuality)
	}
	// Successes bring it back.
	for i := 0; i < 50; i++ {
		l.OnDataOutcome(true)
	}
	if etx := l.ETX(); etx > 3 {
		t.Fatalf("link did not recover after successes: ETX %v", etx)
	}
}

func TestMissPenaltyCapped(t *testing.T) {
	var l Link
	beacons(&l, 1, 16, 1)
	before := inQuality(&l)
	// One congested episode: a huge sequence gap in a single beacon.
	l.OnBeacon(60)
	after := inQuality(&l)
	// The gap folds at most one window of misses: quality must not
	// collapse to near zero from a single event.
	if after < before*0.3 {
		t.Fatalf("single gap collapsed quality %v -> %v", before, after)
	}
}

// TestETXCap checks that a link worse than 100 expected transmissions
// has no usable estimate. Beacons and outcomes alone cannot get there
// (the miss cap keeps inbound at 1/9 or more, the floor keeps outbound
// at 0.1), so the estimate is set directly.
func TestWorstReachableLinkETX(t *testing.T) {
	var l Link
	// Every beacon arrives after a gap of ten, so each is charged the
	// capped eight misses: the lowest inbound sample the estimator takes.
	beacons(&l, 1, 2000, 10)
	for i := 0; i < 100; i++ {
		l.OnDataOutcome(false)
	}
	etx := l.ETX()
	if math.IsInf(etx, 0) || math.IsNaN(etx) || etx == UnknownETX || etx > 90+1e-9 {
		t.Fatalf("worst reachable ETX = %v, want finite and at most 90", etx)
	}
	if etx < 80 {
		t.Fatalf("worst reachable ETX = %v, want near 90 (in %v)", etx, inQuality(&l))
	}
}
