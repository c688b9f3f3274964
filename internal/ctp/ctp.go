// Package ctp implements a Collection Tree Protocol substrate in the style
// of Gnawali et al. (SenSys 2009): ETX-gradient routing with a hybrid link
// estimator, Trickle-paced routing beacons, parent selection with
// hysteresis, and an upward (anycast-free, strictly parent-directed) data
// plane. TeleAdjusting consumes the tree through the hooks exposed here:
// parent-change events, received-beacon events, and beacon piggybacking.
package ctp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"teleadjust/internal/linkest"
	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/trickle"
)

// NoParent marks the absence of a parent.
const NoParent radio.NodeID = radio.BroadcastID

// Beacon is the routing beacon message (broadcast, unacknowledged).
type Beacon struct {
	Seq     uint32
	PathETX float64
	Parent  radio.NodeID
	Hops    uint8
	// Ext carries piggybacked payload from other protocols (TeleAdjusting
	// attaches position-allocation state here).
	Ext any
}

// NoAck marks beacons as pure broadcasts for the MAC.
func (Beacon) NoAck() bool { return true }

// Data is an upward data-plane message addressed to the sink.
type Data struct {
	Origin    radio.NodeID
	OriginSeq uint32
	THL       uint8 // time-has-lived (hops travelled)
	App       any
}

// Config holds the CTP parameters a scenario may vary.
type Config struct {
	// MaxTHL drops data packets that have travelled this many hops.
	MaxTHL uint8
	// MaxPathETX invalidates routes whose cost exceeds it — the bound
	// that stops count-to-infinity among partitioned nodes.
	MaxPathETX float64
	// HelpBeaconDelta is the adaptive-beaconing trigger (CTP §4.3): when
	// a neighbor advertises a cost this much above ours, our gradient
	// information would help it (it is orphaned, looping, or at the
	// construction frontier), so the beacon timer resets. Must exceed the
	// typical one-hop cost delta or dense networks beacon perpetually.
	// 0 disables (orphan beacons still reset).
	HelpBeaconDelta float64
	// CostChangeDelta triggers an early beacon when our own advertised
	// cost has drifted this far since the last beacon — the mechanism
	// that makes routing-loop costs spiral quickly to the validity bound.
	// 0 disables.
	CostChangeDelta float64
	// DupLoopTHLDelta is the datapath loop detector's sensitivity: a
	// duplicate data packet arriving from a different neighbor with at
	// least this many extra hops breaks the route. 0 treats ANY
	// cross-sender duplicate as loop evidence — aggressive healing for
	// large static fields where loops starve their own detection traffic;
	// too twitchy under link fading (alternate-path duplicates after lost
	// acks are routine there).
	DupLoopTHLDelta uint8
}

// DefaultConfig returns TinyOS-like defaults.
func DefaultConfig() Config {
	return Config{
		MaxTHL:          32,
		MaxPathETX:      100,
		DupLoopTHLDelta: 3,
		// Help beacons are off by default: under link fading the
		// "neighbor looks worse than me" condition fires routinely and
		// the resulting beacon storms congest the channel. Large
		// low-dynamics fields (the 225-node simulation scenarios) enable
		// it to accelerate frontier construction.
		HelpBeaconDelta: 0,
		CostChangeDelta: 6,
	}
}

// Fixed TinyOS CTP parameters. Beacons run on trickle.DefaultConfig.
const (
	// parentSwitchThreshold is the path-ETX gain a candidate must offer
	// over the current parent before CTP switches to it.
	parentSwitchThreshold float64 = 1.5
	// maxDataRetries bounds the LPL retransmission rounds of a data frame.
	maxDataRetries = 3
	// beaconSize and dataSize are MAC frame sizes.
	beaconSize = 20
	dataSize   = 28
	// evalInterval paces periodic parent evaluation.
	evalInterval = time.Second
	// maxNeighbors caps the neighbour table (TinyOS's estimator table).
	maxNeighbors = 32
	// staleAfter marks a neighbour not heard for this long as the first
	// to drop when the table is full.
	staleAfter = 10 * time.Minute
)

// Stats counts CTP data-plane outcomes and beacon-timer resets at this
// node.
type Stats struct {
	Originated    uint64
	Forwarded     uint64
	DeliveredSink uint64
	DroppedRetry  uint64
	DroppedNoTree uint64
	DroppedTHL    uint64
	DroppedDup    uint64
	// BeaconResets counts the beacon timer's Trickle resets by cause.
	BeaconResets ResetCauses
}

// ResetCauses counts beacon-timer resets by what triggered them. Every
// reset has exactly one cause, so Total is the timer's reset count.
type ResetCauses struct {
	// CostChange: the node's own cost moved more than CostChangeDelta
	// from the last one it advertised.
	CostChange uint64
	// Help: a routed node heard a neighbour advertise more than
	// HelpBeaconDelta above its own cost.
	Help uint64
	// InfiniteNeighbor: a routed node heard a neighbour with no route.
	InfiniteNeighbor uint64
	// Orphan: a node with no route heard a routed neighbour.
	Orphan uint64
	// Adopt: the node took a parent, first or new.
	Adopt uint64
	// Detach: the node abandoned its route.
	Detach uint64
	// Trigger: another protocol called TriggerBeacon.
	Trigger uint64
}

// Total is the number of resets.
func (r ResetCauses) Total() uint64 {
	return r.CostChange + r.Help + r.InfiniteNeighbor + r.Orphan + r.Adopt + r.Detach + r.Trigger
}

// neighbor is one entry of the neighbour table: the link estimate, the
// neighbour's last routing advertisement and when it was last heard.
type neighbor struct {
	link linkest.Link
	// ad is the last advertisement; hasAd is false while the entry holds
	// only unicast outcomes (no beacon heard since it was added).
	ad    advert
	hasAd bool
	// lastHeard is the last beacon or acked unicast, or when the entry
	// was added.
	lastHeard time.Duration
}

// advert is what a neighbour's beacon advertises about its route.
type advert struct {
	pathETX float64
	parent  radio.NodeID
	hops    uint8
}

type pendingData struct {
	data    *Data
	retries int
}

type dedupKey struct {
	origin radio.NodeID
	seq    uint32
}

// seenEntry records when a data packet was first handled, which
// downstream neighbor delivered it, and its hop count at that moment. A
// later copy that has accumulated additional hops circled back through
// the network — datapath loop evidence. (A copy from a different sender
// at the SAME depth is just an alternate-path duplicate after a lost
// ack.)
type seenEntry struct {
	at   time.Duration
	from radio.NodeID
	thl  uint8
}

// CTP is one node's collection protocol instance.
type CTP struct {
	node   *node.Node
	eng    *sim.Engine
	cfg    Config
	rng    *rand.Rand
	isSink bool

	beacons *trickle.Timer
	evalTk  *sim.Ticker

	// nbrIDs and nbrs are the neighbour table, at most maxNeighbors
	// entries: nbrs[i] describes neighbour nbrIDs[i], in no particular
	// order. A lookup scans nbrIDs, one cache line when full. Past
	// len(nbrs) the array keeps removed entries for reuse.
	nbrIDs []radio.NodeID
	nbrs   []*neighbor

	parent  radio.NodeID
	pathETX float64
	hops    uint8
	// lastAdvertisedETX is the cost carried by our most recent beacon;
	// a material drift triggers an early beacon (CTP's "significant cost
	// change" rule, the mechanism that lets loop costs spiral quickly).
	lastAdvertisedETX float64

	beaconSeq uint32
	dataSeq   uint32
	seen      map[dedupKey]seenEntry
	inflight  map[*radio.Frame]*pendingData

	onParentChange []func(old, new radio.NodeID)
	onBeaconRecv   []func(from radio.NodeID, b *Beacon)
	beaconExt      func() any
	onDeliver      func(origin radio.NodeID, app any)

	stats Stats
}

var _ node.Protocol = (*CTP)(nil)

// New creates a CTP instance on the node and registers it. Call Start to
// begin beaconing.
func New(n *node.Node, cfg Config, rng *rand.Rand, isSink bool) *CTP {
	c := &CTP{
		node:              n,
		eng:               n.Engine(),
		cfg:               cfg,
		rng:               rng,
		isSink:            isSink,
		parent:            NoParent,
		pathETX:           math.Inf(1),
		lastAdvertisedETX: math.Inf(1),
		seen:              make(map[dedupKey]seenEntry),
		inflight:          make(map[*radio.Frame]*pendingData),
	}
	if isSink {
		c.pathETX = 0
		c.hops = 0
	}
	c.beacons = trickle.New(c.eng, trickle.DefaultConfig(), rng, c.sendBeacon)
	c.evalTk = sim.NewTicker(c.eng, evalInterval, c.evaluate)
	n.Register(c)
	return c
}

// Start begins beaconing and periodic parent evaluation.
func (c *CTP) Start() {
	c.beacons.Start()
	c.evalTk.Start()
}

// Stop halts timers.
func (c *CTP) Stop() {
	c.beacons.Stop()
	c.evalTk.Stop()
}

// --- Introspection and hooks ---

// Parent returns the current parent (NoParent if none).
func (c *CTP) Parent() radio.NodeID { return c.parent }

// PathETX returns the advertised path ETX (0 at the sink, +Inf when
// unattached).
func (c *CTP) PathETX() float64 { return c.pathETX }

// Hops returns the advertised hop distance to the sink.
func (c *CTP) Hops() uint8 { return c.hops }

// HasRoute reports whether the node is attached to the tree.
func (c *CTP) HasRoute() bool { return c.isSink || c.parent != NoParent }

// IsSink reports whether this node is the collection root.
func (c *CTP) IsSink() bool { return c.isSink }

// NeighborAd returns the last routing advertisement heard from a
// neighbor in the table.
func (c *CTP) NeighborAd(id radio.NodeID) (pathETX float64, parent radio.NodeID, hops uint8, ok bool) {
	n := c.lookup(id)
	if n == nil || !n.hasAd {
		return 0, NoParent, 0, false
	}
	return n.ad.pathETX, n.ad.parent, n.ad.hops, true
}

// OnParentChange registers a callback fired when the parent changes
// (old == NoParent on first attachment — the paper's "routing found
// event").
func (c *CTP) OnParentChange(fn func(old, new radio.NodeID)) {
	c.onParentChange = append(c.onParentChange, fn)
}

// OnBeaconReceived registers a callback fired for every received beacon.
func (c *CTP) OnBeaconReceived(fn func(from radio.NodeID, b *Beacon)) {
	c.onBeaconRecv = append(c.onBeaconRecv, fn)
}

// SetBeaconExt installs the piggyback provider called when a beacon is
// about to be sent.
func (c *CTP) SetBeaconExt(fn func() any) { c.beaconExt = fn }

// SetDeliverFunc installs the sink-side application delivery callback.
func (c *CTP) SetDeliverFunc(fn func(origin radio.NodeID, app any)) { c.onDeliver = fn }

// TriggerBeacon resets the Trickle timer, forcing a beacon soon.
func (c *CTP) TriggerBeacon() { c.resetBeacons(&c.stats.BeaconResets.Trigger) }

// resetBeacons resets the beacon timer and counts the reset under cause.
func (c *CTP) resetBeacons(cause *uint64) {
	*cause++
	c.beacons.Reset()
}

// ReportLinkOutcome feeds a unicast outcome observed by another protocol
// (RPL DAOs, TeleAdjusting position frames) into the link estimator, so
// asymmetric links are detected even without CTP data traffic, and
// re-evaluates the parent.
func (c *CTP) ReportLinkOutcome(to radio.NodeID, acked bool) {
	c.onDataOutcome(to, acked)
	c.evaluate()
}

// --- Neighbour table ---

// lookup returns the table entry for id, or nil.
func (c *CTP) lookup(id radio.NodeID) *neighbor {
	for i, nid := range c.nbrIDs {
		if nid == id {
			return c.nbrs[i]
		}
	}
	return nil
}

// entry returns the table entry for id, adding one heard now if there is
// none; a full table first makes room.
func (c *CTP) entry(id radio.NodeID) *neighbor {
	if n := c.lookup(id); n != nil {
		return n
	}
	if len(c.nbrIDs) >= maxNeighbors {
		c.evict()
	}
	var n *neighbor
	if k := len(c.nbrs); k < cap(c.nbrs) {
		n = c.nbrs[:k+1][k] // an entry removed earlier, or nil
	}
	if n == nil {
		n = new(neighbor)
	}
	*n = neighbor{lastHeard: c.eng.Now()}
	c.nbrIDs = append(c.nbrIDs, id)
	c.nbrs = append(c.nbrs, n)
	return n
}

// evict drops every entry not heard for staleAfter and, if the table is
// still full, the entry of lowest link rank, ties to the lowest id.
func (c *CTP) evict() {
	now := c.eng.Now()
	for i := 0; i < len(c.nbrs); {
		if now-c.nbrs[i].lastHeard > staleAfter {
			c.remove(i) // the last entry moves into i
			continue
		}
		i++
	}
	if len(c.nbrs) < maxNeighbors {
		return
	}
	worst, worstQ := 0, c.nbrs[0].link.Rank()
	for i := 1; i < len(c.nbrs); i++ {
		if q := c.nbrs[i].link.Rank(); q < worstQ || q == worstQ && c.nbrIDs[i] < c.nbrIDs[worst] {
			worst, worstQ = i, q
		}
	}
	c.remove(worst)
}

// remove moves the last entry into slot i and keeps entry i's record
// past the end of the table for reuse.
func (c *CTP) remove(i int) {
	last := len(c.nbrs) - 1
	c.nbrIDs[i] = c.nbrIDs[last]
	c.nbrs[i], c.nbrs[last] = c.nbrs[last], c.nbrs[i]
	c.nbrIDs = c.nbrIDs[:last]
	c.nbrs = c.nbrs[:last]
}

// onDataOutcome feeds a unicast outcome on the link to a neighbor into
// its entry.
func (c *CTP) onDataOutcome(to radio.NodeID, acked bool) {
	n := c.entry(to)
	n.link.OnDataOutcome(acked)
	if acked {
		n.lastHeard = c.eng.Now()
	}
}

// cost is the path cost through the neighbor: its link ETX plus the cost
// it advertised, +Inf when it is not in the table (n nil), has not
// advertised or has no usable link estimate.
func (n *neighbor) cost() float64 {
	if n == nil || !n.hasAd {
		return math.Inf(1)
	}
	etx := n.link.ETX()
	if etx == linkest.UnknownETX {
		return math.Inf(1)
	}
	return etx + n.ad.pathETX
}

// Stats returns a copy of the data-plane statistics.
func (c *CTP) Stats() Stats { return c.stats }

// --- Beaconing ---

func (c *CTP) sendBeacon() {
	// A beacon queued behind other traffic would be stale by the time it
	// airs (LPL sends take up to a wake interval each); skip and let
	// Trickle fire again. TinyOS CTP has a single beacon buffer for the
	// same reason.
	if c.node.MAC().Busy() || c.node.MAC().QueueLen() > 0 {
		return
	}
	c.beaconSeq++
	c.lastAdvertisedETX = c.pathETX
	b := &Beacon{
		Seq:     c.beaconSeq,
		PathETX: c.pathETX,
		Parent:  c.parent,
		Hops:    c.hops,
	}
	size := beaconSize
	if c.beaconExt != nil {
		b.Ext = c.beaconExt()
		if s, ok := b.Ext.(interface{ ExtSize() int }); ok {
			size += s.ExtSize()
		}
	}
	f := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     radio.BroadcastID,
		Size:    size,
		Payload: b,
	}
	// Best effort; a full queue just delays topology convergence.
	_ = c.node.Send(f)
}

func (c *CTP) handleBeacon(from radio.NodeID, b *Beacon) {
	n := c.entry(from)
	n.lastHeard = c.eng.Now()
	n.link.OnBeacon(b.Seq)
	n.ad = advert{pathETX: b.PathETX, parent: b.Parent, hops: b.Hops}
	n.hasAd = true
	// Trickle consistency (adaptive beaconing): hearing a node whose cost
	// is far above ours — orphaned, looping, or at the construction
	// frontier — means our gradient information would help it, so beacon
	// soon. Routine beacons must NOT reset the timer, or churn feeds a
	// beacon storm that congests the channel and causes more churn.
	myCost := c.pathETX
	switch {
	case c.HasRoute() && math.IsInf(b.PathETX, 1):
		c.resetBeacons(&c.stats.BeaconResets.InfiniteNeighbor)
	case c.HasRoute() && c.cfg.HelpBeaconDelta > 0 && b.PathETX > myCost+c.cfg.HelpBeaconDelta:
		c.resetBeacons(&c.stats.BeaconResets.Help)
	case !c.HasRoute() && !math.IsInf(b.PathETX, 1):
		// Orphan side of the same exchange: a routed neighbor is in
		// range, so advertise the need eagerly until attached. (Beacons
		// from fellow orphans must NOT reset, or a large unattached
		// region jams its own channel at the minimum interval.)
		c.resetBeacons(&c.stats.BeaconResets.Orphan)
	default:
		c.beacons.Hear()
	}
	c.evaluate()
	for _, fn := range c.onBeaconRecv {
		fn(from, b)
	}
}

// candidate is a parent choice: the neighbor, its link ETX, the path
// cost through it and the hops it advertised.
type candidate struct {
	id        radio.NodeID
	etx, cost float64
	hops      uint8
}

// bestCandidate returns the cheapest usable parent, or id NoParent when
// there is none. A cost tie goes to the lower link ETX, then to the lower
// id: the candidate a scan of the neighbors sorted by ETX and id would
// meet first. One pass over the neighbour table, no sort, no allocation.
func (c *CTP) bestCandidate() candidate {
	best := candidate{id: NoParent, cost: math.Inf(1)}
	self := c.node.ID()
	for i, n := range c.nbrs {
		id, ad := c.nbrIDs[i], &n.ad
		if !n.hasAd || math.IsInf(ad.pathETX, 1) {
			continue
		}
		if ad.parent == self {
			continue // immediate loop
		}
		if ad.hops >= c.cfg.MaxTHL {
			continue // advertised depth only gets there inside a loop
		}
		etx := n.link.ETX()
		if etx == linkest.UnknownETX {
			continue
		}
		cost := etx + ad.pathETX
		if cost >= c.cfg.MaxPathETX {
			continue // beyond the valid-route bound
		}
		if cost < best.cost || cost == best.cost &&
			(etx < best.etx || etx == best.etx && id < best.id) {
			best = candidate{id: id, etx: etx, cost: cost, hops: ad.hops}
		}
	}
	return best
}

// evaluate runs parent selection.
func (c *CTP) evaluate() {
	if c.isSink {
		return
	}
	best := c.bestCandidate()
	if best.id == NoParent {
		// No usable candidate. Our own cost must still track the current
		// parent's advertisements — a stale self-cost is what lets
		// routing loops persist — and blow-ups past the validity bound
		// (count-to-infinity among partitioned nodes) detach.
		if c.parent != NoParent {
			if c.currentCost() >= c.cfg.MaxPathETX {
				c.detach()
				return
			}
			c.refreshCost()
		}
		return
	}
	switch {
	case c.parent == NoParent:
		c.adopt(best)
	case best.id != c.parent:
		cur := c.currentCost()
		if best.cost+parentSwitchThreshold < cur {
			c.adopt(best)
		} else if cur >= c.cfg.MaxPathETX {
			c.adopt(best)
		} else {
			c.refreshCost()
		}
	default:
		if c.currentCost() >= c.cfg.MaxPathETX {
			c.detach()
			return
		}
		c.refreshCost()
	}
}

// detach abandons the current route: the node advertises itself as
// unattached until a valid candidate appears.
func (c *CTP) detach() {
	old := c.parent
	c.parent = NoParent
	c.pathETX = math.Inf(1)
	c.resetBeacons(&c.stats.BeaconResets.Detach)
	for _, fn := range c.onParentChange {
		fn(old, NoParent)
	}
}

// currentCost recomputes the cost through the current parent (+Inf with
// no parent: NoParent is never in the table).
func (c *CTP) currentCost() float64 { return c.lookup(c.parent).cost() }

func (c *CTP) refreshCost() {
	n := c.lookup(c.parent)
	cost := n.cost()
	if math.IsInf(cost, 1) {
		return
	}
	c.pathETX = cost
	if c.cfg.CostChangeDelta > 0 && !math.IsInf(c.lastAdvertisedETX, 1) &&
		math.Abs(cost-c.lastAdvertisedETX) > c.cfg.CostChangeDelta {
		c.resetBeacons(&c.stats.BeaconResets.CostChange)
	}
	if n.ad.hops >= c.cfg.MaxTHL {
		// Hop counts only grow like this inside a routing loop (each
		// trip around the cycle adds one): break it by detaching; the
		// orphan/help beacon exchange rebuilds a real route.
		c.detach()
		return
	}
	c.hops = n.ad.hops + 1
}

func (c *CTP) adopt(best candidate) {
	old := c.parent
	c.parent = best.id
	c.pathETX = best.cost
	c.hops = best.hops + 1
	c.resetBeacons(&c.stats.BeaconResets.Adopt)
	for _, fn := range c.onParentChange {
		fn(old, best.id)
	}
}

// --- Data plane ---

// SendToSink originates an upward data packet carrying app.
func (c *CTP) SendToSink(app any) error {
	c.dataSeq++
	d := &Data{
		Origin:    c.node.ID(),
		OriginSeq: c.dataSeq,
		App:       app,
	}
	c.stats.Originated++
	if c.isSink {
		c.stats.DeliveredSink++
		if c.onDeliver != nil {
			c.onDeliver(d.Origin, d.App)
		}
		return nil
	}
	return c.forward(d)
}

func (c *CTP) forward(d *Data) error {
	if c.parent == NoParent {
		c.stats.DroppedNoTree++
		return fmt.Errorf("ctp %d: no route to sink", c.node.ID())
	}
	f := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     c.parent,
		Size:    dataSize,
		Payload: d,
	}
	c.inflight[f] = &pendingData{data: d, retries: maxDataRetries}
	if err := c.node.Send(f); err != nil {
		delete(c.inflight, f)
		c.stats.DroppedRetry++
		return err
	}
	return nil
}

// --- node.Protocol implementation ---

// Owns implements node.Protocol.
func (c *CTP) Owns(payload any) bool {
	switch payload.(type) {
	case *Beacon, *Data:
		return true
	}
	return false
}

// Classify implements node.Protocol.
func (c *CTP) Classify(f *radio.Frame) mac.Classification {
	switch f.Payload.(type) {
	case *Beacon:
		return mac.Classification{Decision: mac.Deliver}
	case *Data:
		if f.Dst == c.node.ID() {
			return mac.Classification{Decision: mac.AckAndDeliver}
		}
	}
	return mac.Classification{Decision: mac.Ignore}
}

// Deliver implements node.Protocol.
func (c *CTP) Deliver(f *radio.Frame) {
	switch p := f.Payload.(type) {
	case *Beacon:
		c.handleBeacon(f.Src, p)
	case *Data:
		c.handleData(f.Src, p)
	}
}

func (c *CTP) handleData(from radio.NodeID, d *Data) {
	c.gcSeen()
	if d.Origin == c.node.ID() && !c.isSink {
		// Our own packet came back to us: unambiguous routing loop.
		c.stats.DroppedDup++
		if c.parent != NoParent {
			c.detach()
		}
		return
	}
	key := dedupKey{origin: d.Origin, seq: d.OriginSeq}
	if prev, dup := c.seen[key]; dup {
		c.stats.DroppedDup++
		// Duplicates from the same neighbor (upstream retransmissions
		// after a lost ack) and same-depth copies via an alternate path
		// are harmless. A copy that has accumulated extra hops since we
		// first forwarded it circled back through us: routing loop.
		// Break it (CTP's datapath validation).
		if prev.from != from && d.THL >= prev.thl+c.cfg.DupLoopTHLDelta &&
			!c.isSink && c.parent != NoParent {
			c.detach()
		}
		return
	}
	c.seen[key] = seenEntry{at: c.eng.Now(), from: from, thl: d.THL}
	if c.isSink {
		c.stats.DeliveredSink++
		if c.onDeliver != nil {
			c.onDeliver(d.Origin, d.App)
		}
		return
	}
	if d.THL >= c.cfg.MaxTHL {
		// Datapath loop detection: a packet only accumulates this many
		// hops by circulating, and every node it visits — including us —
		// is on the cycle. Break it here: detach, advertise the orphan
		// state, and rebuild from the neighbors' fresh gradient.
		c.stats.DroppedTHL++
		if !c.isSink && c.parent != NoParent {
			c.detach()
		}
		return
	}
	fwd := &Data{
		Origin:    d.Origin,
		OriginSeq: d.OriginSeq,
		THL:       d.THL + 1,
		App:       d.App,
	}
	c.stats.Forwarded++
	_ = c.forward(fwd)
}

// OnSendDone implements node.Protocol.
func (c *CTP) OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool) {
	if _, isBeacon := f.Payload.(*Beacon); isBeacon {
		return
	}
	pend, tracked := c.inflight[f]
	if !tracked {
		return
	}
	delete(c.inflight, f)
	c.onDataOutcome(f.Dst, ok)
	if ok {
		return
	}
	// Failed LPL round: re-evaluate the tree and retry through the
	// (possibly new) parent.
	c.evaluate()
	pend.retries--
	if pend.retries <= 0 {
		c.stats.DroppedRetry++
		return
	}
	if c.parent == NoParent {
		c.stats.DroppedNoTree++
		return
	}
	nf := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     c.parent,
		Size:    dataSize,
		Payload: pend.data,
	}
	c.inflight[nf] = pend
	if err := c.node.Send(nf); err != nil {
		delete(c.inflight, nf)
		c.stats.DroppedRetry++
	}
}

func (c *CTP) gcSeen() {
	if len(c.seen) < 512 {
		return
	}
	cutoff := c.eng.Now() - 5*time.Minute
	for k, e := range c.seen {
		if e.at < cutoff {
			delete(c.seen, k)
		}
	}
}
