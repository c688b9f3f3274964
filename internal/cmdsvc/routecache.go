package cmdsvc

import (
	"container/list"
	"time"

	"teleadjust/internal/fault"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// CacheConfig tunes the route-freshness cache.
type CacheConfig struct {
	// TTL is how long one confirmation keeps a route fresh. Zero or
	// negative disables the cache entirely.
	TTL time.Duration
	// Cap bounds the number of cached destinations (LRU eviction past it;
	// 0 = unbounded).
	Cap int
}

// CacheStats are the cache's lifetime counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Confirms      uint64
	Invalidations uint64
	Evictions     uint64
}

// rcEntry is one cached confirmation.
type rcEntry struct {
	dst radio.NodeID
	at  time.Duration
}

// RouteCache remembers which destinations recently acknowledged a control
// operation end to end. A fresh entry means the encoded path worked
// moments ago, so the controller can skip the Re-Tele rescue probe on a
// timeout (the probe exists to route around stale code state, which a
// fresh confirmation rules out). Entries expire by TTL, are bounded by an
// LRU cap, and are invalidated eagerly by the telemetry signals that mean
// "this route may have moved": code churn, mid-network give-ups, and
// fault-plan epochs.
//
// The cache also implements telemetry.Sink; subscribe it to the core and
// coding layers to wire up event-driven invalidation.
type RouteCache struct {
	now func() time.Duration
	cfg CacheConfig

	entries map[radio.NodeID]*list.Element
	lru     *list.List // front = most recently confirmed

	// opDst maps live operation ids to their destinations so op-scoped
	// events (give-ups carry only Op/UID) can invalidate the right route.
	opDst    map[uint32]radio.NodeID
	opOrder  []uint32
	opCursor int

	stats CacheStats
}

// maxTrackedOps bounds the op → destination map (give-up events for
// operations older than the window simply miss).
const maxTrackedOps = 1024

// NewRouteCache creates a cache reading virtual time from now.
func NewRouteCache(now func() time.Duration, cfg CacheConfig) *RouteCache {
	return &RouteCache{
		now:     now,
		cfg:     cfg,
		entries: make(map[radio.NodeID]*list.Element),
		lru:     list.New(),
		opDst:   make(map[uint32]radio.NodeID),
	}
}

// Fresh reports whether dst holds an unexpired confirmation, counting the
// lookup as a hit or miss.
func (c *RouteCache) Fresh(dst radio.NodeID) bool {
	el, ok := c.entries[dst]
	if ok {
		e := el.Value.(*rcEntry)
		if c.now()-e.at <= c.cfg.TTL {
			c.stats.Hits++
			return true
		}
		c.remove(el)
	}
	c.stats.Misses++
	return false
}

// Confirm records a successful end-to-end acknowledgement for dst.
func (c *RouteCache) Confirm(dst radio.NodeID) {
	c.stats.Confirms++
	now := c.now()
	if el, ok := c.entries[dst]; ok {
		el.Value.(*rcEntry).at = now
		c.lru.MoveToFront(el)
		return
	}
	if c.cfg.Cap > 0 && c.lru.Len() >= c.cfg.Cap {
		if back := c.lru.Back(); back != nil {
			c.remove(back)
			c.stats.Evictions++
		}
	}
	c.entries[dst] = c.lru.PushFront(&rcEntry{dst: dst, at: now})
}

// InvalidateNode drops dst's confirmation, if any.
func (c *RouteCache) InvalidateNode(dst radio.NodeID) {
	if el, ok := c.entries[dst]; ok {
		c.remove(el)
		c.stats.Invalidations++
	}
}

// Flush drops every confirmation (topology-wide fault epochs).
func (c *RouteCache) Flush() {
	n := c.lru.Len()
	if n == 0 {
		return
	}
	c.lru.Init()
	clear(c.entries)
	c.stats.Invalidations += uint64(n)
}

// Len returns the number of cached confirmations.
func (c *RouteCache) Len() int { return c.lru.Len() }

// Stats returns a snapshot of the lifetime counters.
func (c *RouteCache) Stats() CacheStats { return c.stats }

func (c *RouteCache) remove(el *list.Element) {
	c.lru.Remove(el)
	delete(c.entries, el.Value.(*rcEntry).dst)
}

// Consume implements telemetry.Sink: event-driven invalidation. Subscribe
// the cache to telemetry.LayerCore and telemetry.LayerCoding.
func (c *RouteCache) Consume(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindOpIssue:
		c.trackOp(ev.Op, ev.Dst)
	case telemetry.KindCodeChanged:
		// The node's code moved: the registry copy the sink dispatched
		// with is stale until the next report.
		c.InvalidateNode(ev.Node)
	case telemetry.KindOpGiveUp:
		// A relay exhausted its backtrack budget mid-network: the path to
		// that operation's destination is suspect even if a rescue lands.
		if dst, ok := c.opDst[ev.Op]; ok {
			c.InvalidateNode(dst)
		}
	case telemetry.KindOpUnroutable:
		c.InvalidateNode(ev.Dst)
	}
}

// trackOp records op → dst with a bounded ring of tracked operations.
func (c *RouteCache) trackOp(op uint32, dst radio.NodeID) {
	if _, ok := c.opDst[op]; !ok {
		if len(c.opOrder) < maxTrackedOps {
			c.opOrder = append(c.opOrder, op)
		} else {
			delete(c.opDst, c.opOrder[c.opCursor])
			c.opOrder[c.opCursor] = op
			c.opCursor = (c.opCursor + 1) % maxTrackedOps
		}
	}
	c.opDst[op] = dst
}

// OnFault is a fault.Injector epoch hook: fault edges invalidate the
// routes they can move. Link perturbations touch their endpoints; crash,
// reboot, partition, and drop windows can re-parent whole subtrees, so
// they flush the cache.
func (c *RouteCache) OnFault(ev fault.Event, end bool) {
	switch ev.Kind {
	case fault.Link:
		c.InvalidateNode(radio.NodeID(ev.From))
		c.InvalidateNode(radio.NodeID(ev.To))
	default:
		c.Flush()
	}
}
