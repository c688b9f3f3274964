package cmdsvc

import (
	"testing"
	"time"

	"teleadjust/internal/fault"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// testClock is a manually advanced virtual clock.
type testClock struct{ t time.Duration }

func (c *testClock) now() time.Duration { return c.t }

func TestRouteCacheTTLExpiry(t *testing.T) {
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{TTL: 10 * time.Second})
	if c.Fresh(3) {
		t.Fatal("empty cache reported fresh")
	}
	c.Confirm(3)
	clk.t = 9 * time.Second
	if !c.Fresh(3) {
		t.Fatal("unexpired entry reported stale")
	}
	clk.t = 11 * time.Second
	if c.Fresh(3) {
		t.Fatal("expired entry reported fresh")
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still cached: len=%d", c.Len())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Confirms != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRouteCacheLRUEviction(t *testing.T) {
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{TTL: time.Hour, Cap: 2})
	c.Confirm(1)
	c.Confirm(2)
	c.Confirm(1) // refresh 1: 2 becomes LRU
	c.Confirm(3) // evicts 2
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Fresh(2) {
		t.Fatal("evicted entry reported fresh")
	}
	if !c.Fresh(1) || !c.Fresh(3) {
		t.Fatal("retained entries reported stale")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRouteCacheInvalidateAndFlush(t *testing.T) {
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{TTL: time.Hour})
	c.Confirm(1)
	c.Confirm(2)
	c.InvalidateNode(1)
	c.InvalidateNode(9) // absent: no count
	if c.Fresh(1) {
		t.Fatal("invalidated entry reported fresh")
	}
	c.Flush()
	if c.Len() != 0 || c.Fresh(2) {
		t.Fatal("flush left entries behind")
	}
	if s := c.Stats(); s.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2 (one explicit + one flushed)", s.Invalidations)
	}
}

func TestRouteCacheConsumeInvalidation(t *testing.T) {
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{TTL: time.Hour})

	// code.changed drops the node's entry.
	c.Confirm(4)
	c.Consume(telemetry.Event{Kind: telemetry.KindCodeChanged, Node: 4})
	if c.Fresh(4) {
		t.Fatal("code.changed did not invalidate")
	}

	// op give-up resolves through the tracked op → dst map.
	c.Confirm(5)
	c.Consume(telemetry.Event{Kind: telemetry.KindOpIssue, Op: 77, Dst: 5})
	c.Consume(telemetry.Event{Kind: telemetry.KindOpGiveUp, Op: 77})
	if c.Fresh(5) {
		t.Fatal("op give-up did not invalidate the tracked destination")
	}

	// unroutable carries the destination directly.
	c.Confirm(6)
	c.Consume(telemetry.Event{Kind: telemetry.KindOpUnroutable, Dst: 6})
	if c.Fresh(6) {
		t.Fatal("unroutable did not invalidate")
	}

	// an untracked give-up is a no-op, not a panic.
	c.Consume(telemetry.Event{Kind: telemetry.KindOpGiveUp, Op: 9999})
}

func TestRouteCacheOpTrackingBounded(t *testing.T) {
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{TTL: time.Hour})
	for op := uint32(1); op <= maxTrackedOps+10; op++ {
		c.Consume(telemetry.Event{Kind: telemetry.KindOpIssue, Op: op, Dst: radio.NodeID(op % 100)})
	}
	if len(c.opDst) > maxTrackedOps {
		t.Fatalf("op map grew to %d, bound is %d", len(c.opDst), maxTrackedOps)
	}
	// The oldest ops were evicted from the ring; the newest still resolve.
	c.Confirm(radio.NodeID((maxTrackedOps + 10) % 100))
	c.Consume(telemetry.Event{Kind: telemetry.KindOpGiveUp, Op: maxTrackedOps + 10})
	if c.Fresh(radio.NodeID((maxTrackedOps + 10) % 100)) {
		t.Fatal("recent op lost from the tracking ring")
	}
}

func TestRouteCacheOnFault(t *testing.T) {
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{TTL: time.Hour})
	c.Confirm(1)
	c.Confirm(2)
	c.Confirm(3)
	c.OnFault(fault.Event{Kind: fault.Link, From: 1, To: 2}, false)
	if c.Fresh(1) || c.Fresh(2) {
		t.Fatal("link fault did not invalidate its endpoints")
	}
	if !c.Fresh(3) {
		t.Fatal("link fault flushed an unrelated entry")
	}
	c.OnFault(fault.Event{Kind: fault.Crash, Node: 9}, false)
	if c.Len() != 0 {
		t.Fatal("crash epoch did not flush the cache")
	}
}

func TestRouteCacheDisabledTTL(t *testing.T) {
	// Service-level contract: TTL <= 0 never constructs a cache, but a
	// directly constructed zero-TTL cache must still behave sanely
	// (everything is immediately stale).
	clk := &testClock{}
	c := NewRouteCache(clk.now, CacheConfig{})
	c.Confirm(1)
	clk.t = time.Nanosecond
	if c.Fresh(1) {
		t.Fatal("zero-TTL entry survived time passing")
	}
}
