package ctp

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"teleadjust/internal/linkest"
	"teleadjust/internal/radio"
)

// sortedScanPick is the parent pick as it was made before bestCandidate:
// the usable neighbors sorted by ETX then id, scanned for the first
// strictly cheaper candidate.
func sortedScanPick(c *CTP) (radio.NodeID, float64) {
	var ids []radio.NodeID
	for i, n := range c.nbrs {
		if n.link.ETX() != linkest.UnknownETX {
			ids = append(ids, c.nbrIDs[i])
		}
	}
	etx := func(id radio.NodeID) float64 { return c.lookup(id).link.ETX() }
	sort.Slice(ids, func(i, j int) bool {
		a, b := etx(ids[i]), etx(ids[j])
		if a != b {
			return a < b
		}
		return ids[i] < ids[j]
	})
	best, bestCost := NoParent, math.Inf(1)
	for _, id := range ids {
		n := c.lookup(id)
		ad := n.ad
		if !n.hasAd || math.IsInf(ad.pathETX, 1) || ad.parent == c.node.ID() || ad.hops >= c.cfg.MaxTHL {
			continue
		}
		cost := etx(id) + ad.pathETX
		if cost >= c.cfg.MaxPathETX {
			continue
		}
		if cost < bestCost {
			best, bestCost = id, cost
		}
	}
	return best, bestCost
}

// feedLink feeds a link of one of a few classes. Links of one class carry
// bit-identical ETX values, which is what forces ETX ties; class 0 stays
// without a usable estimate.
func feedLink(l *linkest.Link, class int) {
	beacons, step := []int{1, 8, 2, 16, 24, 12}[class], []int{1, 1, 1, 2, 3, 1}[class]
	for i := 1; i <= beacons; i++ {
		l.OnBeacon(uint32(i * step))
	}
	if class == 5 { // outbound quality 3/5 from data outcomes
		for i := 0; i < 5; i++ {
			l.OnDataOutcome(i%2 == 0)
		}
	}
}

// tieCost returns a path cost p with etx + p == cost exactly, or ok false
// when none lies within a few ulps of cost − etx.
func tieCost(etx, cost float64) (p float64, ok bool) {
	p = cost - etx
	for i := 0; i < 4; i++ {
		switch s := etx + p; {
		case s == cost:
			return p, true
		case s < cost:
			p = math.Nextafter(p, math.Inf(1))
		default:
			p = math.Nextafter(p, math.Inf(-1))
		}
	}
	return 0, false
}

// TestEvaluateMatchesSortedScan checks the one-pass parent pick against
// the sorted scan it replaced, over seeded random neighbor tables with
// forced cost ties and ETX ties, loops, deep and unreachable
// advertisements, and entries with no advertisement or no usable link.
func TestEvaluateMatchesSortedScan(t *testing.T) {
	cfg := DefaultConfig()
	_, c := bareCTP(t, cfg)
	rng := rand.New(rand.NewPCG(18, 1))
	var byETX, byID int
	for trial := 0; trial < 3000; trial++ {
		c.nbrIDs, c.nbrs = c.nbrIDs[:0], c.nbrs[:0]
		n := 1 + rng.IntN(maxNeighbors)
		for i := 0; i < n; i++ {
			id := radio.NodeID(1 + rng.IntN(48))
			if rng.IntN(8) > 0 {
				feedLink(&c.entry(id).link, rng.IntN(6))
			}
			if rng.IntN(8) == 0 {
				continue // no advertisement
			}
			ad := advert{pathETX: float64(rng.IntN(12)) / 2, parent: NoParent, hops: uint8(1 + rng.IntN(4))}
			switch rng.IntN(16) {
			case 0:
				ad.pathETX = math.Inf(1)
			case 1:
				ad.parent = c.node.ID()
			case 2:
				ad.hops = cfg.MaxTHL
			case 3:
				ad.pathETX = cfg.MaxPathETX - 0.5
			}
			c.entry(id)
			advertise(c, id, ad)
		}
		// Force exact cost ties between neighbors of different ETX.
		var usable []radio.NodeID
		for i, n := range c.nbrs {
			if n.link.ETX() != linkest.UnknownETX && n.hasAd && !math.IsInf(n.ad.pathETX, 1) {
				usable = append(usable, c.nbrIDs[i])
			}
		}
		sort.Slice(usable, func(i, j int) bool { return usable[i] < usable[j] })
		for k := 0; k+1 < len(usable) && rng.IntN(3) > 0; k += 2 {
			a, b := c.lookup(usable[k]), c.lookup(usable[k+1])
			if p, ok := tieCost(b.link.ETX(), a.link.ETX()+a.ad.pathETX); ok && p >= 0 {
				b.ad.pathETX = p
			}
		}

		wantID, wantCost := sortedScanPick(c)
		got := c.bestCandidate()
		if got.id != wantID || got.cost != wantCost {
			t.Fatalf("trial %d: one-pass pick %d at cost %v, sorted scan %d at cost %v",
				trial, got.id, got.cost, wantID, wantCost)
		}
		// Count the usable rivals the pick beat on a cost tie.
		if got.id == NoParent {
			continue
		}
		for i, n := range c.nbrs {
			id, etx, ad := c.nbrIDs[i], n.link.ETX(), n.ad
			if etx == linkest.UnknownETX || !n.hasAd || id == got.id || etx+ad.pathETX != got.cost ||
				ad.parent == c.node.ID() || ad.hops >= cfg.MaxTHL {
				continue
			}
			if etx == got.etx {
				byID++
			} else {
				byETX++
			}
		}
	}
	if byETX < 100 || byID < 100 {
		t.Fatalf("cost ties broken: %d by ETX, %d by id; want at least 100 each", byETX, byID)
	}
}

// evaluateFixture is a node with a current parent among 24 neighbors of
// mixed link classes and advertised costs, in the steady state where
// evaluate keeps the parent and refreshes its cost.
func evaluateFixture(tb testing.TB) *CTP {
	_, c := bareCTP(tb, DefaultConfig())
	for i := 1; i <= 24; i++ {
		id := radio.NodeID(i)
		feedLink(&c.entry(id).link, 1+i%5)
		advertise(c, id, advert{pathETX: float64(i%7) + 1, parent: NoParent, hops: uint8(1 + i%4)})
	}
	c.evaluate()
	if c.Parent() == NoParent {
		tb.Fatal("fixture adopted no parent")
	}
	return c
}

// TestEvaluateAllocFree pins parent selection, run on every beacon heard
// and every evaluation tick, to zero allocations.
func TestEvaluateAllocFree(t *testing.T) {
	c := evaluateFixture(t)
	if allocs := testing.AllocsPerRun(200, c.evaluate); allocs != 0 {
		t.Fatalf("evaluate allocates %v times per call, want 0", allocs)
	}
}

// TestNeighborTableAllocFree pins the neighbour table's hot path, a
// beacon from a known neighbour (the lookup, the estimator update and the
// parent pick it triggers), to zero allocations. The beacons cycle over
// all 24 neighbours, so the lookups end at every position of the table.
func TestNeighborTableAllocFree(t *testing.T) {
	c := evaluateFixture(t)
	b := &Beacon{Parent: NoParent}
	id, seq := radio.NodeID(0), uint32(0)
	hearOne := func() {
		id = id%24 + 1
		if id == 1 {
			seq++
		}
		b.Seq, b.PathETX, b.Hops = seq, float64(id%7)+1, uint8(1+id%4)
		c.handleBeacon(id, b)
	}
	for i := 0; i < 24*8; i++ {
		hearOne()
	}
	if allocs := testing.AllocsPerRun(24*20, hearOne); allocs != 0 {
		t.Fatalf("a known neighbour's beacon allocates %v times, want 0", allocs)
	}
	if len(c.nbrIDs) != 24 || c.Parent() == NoParent {
		t.Fatalf("table holds %d neighbours, parent %v", len(c.nbrIDs), c.Parent())
	}
}

func BenchmarkCTPEvaluate(b *testing.B) {
	c := evaluateFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.evaluate()
	}
}
