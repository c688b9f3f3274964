// Package rpl implements the downward half of RPL (RFC 6550) in storing
// mode, the deterministic-routing baseline of the paper's evaluation. The
// DODAG mirrors the collection tree: nodes advertise themselves upward
// with DAO messages, every ancestor stores a (target → next-hop child)
// route, and downward control packets follow those stored routes hop by
// hop. Staleness of the stored state under link dynamics is exactly the
// weakness the paper measures.
package rpl

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
)

// DAO is the destination advertisement, forwarded parent-ward; each hop
// stores a downward route for Target via the child it came from.
type DAO struct {
	Target radio.NodeID
	Seq    uint32
}

// Downward is a control packet routed by the stored tables.
type Downward struct {
	UID  uint32
	Dst  radio.NodeID
	Hops uint8
	App  any
}

// DownAck is the destination's end-to-end acknowledgement (upward via
// CTP).
type DownAck struct {
	UID  uint32
	From radio.NodeID
	Hops uint8
}

// Config holds RPL parameters.
type Config struct {
	// DAOInterval paces destination advertisements.
	DAOInterval time.Duration
	// ControlTimeout bounds pending operations at the sink.
	ControlTimeout time.Duration
}

// DefaultConfig returns sane defaults for a 512 ms wake interval.
func DefaultConfig() Config {
	return Config{
		DAOInterval:    60 * time.Second,
		ControlTimeout: 60 * time.Second,
	}
}

const (
	// routeLifetime expires stored routes.
	routeLifetime = 4 * 60 * time.Second
	// maxRetries bounds per-hop LPL retransmission rounds.
	maxRetries = 6
	// daoSize / downSize are MAC frame sizes.
	daoSize  = 12
	downSize = 30
)

// Stats counts RPL activity at one node.
type Stats struct {
	DAOSent    uint64
	RouteCount int
	// DownSends counts downward transmissions (Table III metric).
	DownSends   uint64
	Delivered   uint64
	DropNoRoute uint64
	DropRetry   uint64
}

// Result mirrors the TeleAdjusting controller result.
type Result = protocol.Result

type route struct {
	next radio.NodeID
	seq  uint32
	at   time.Duration
}

type inflight struct {
	pkt     *Downward
	retries int
}

// RPL is one node's instance.
type RPL struct {
	node   *node.Node
	eng    *sim.Engine
	cfg    Config
	rng    *rand.Rand
	ctp    *ctp.CTP
	isSink bool

	routes map[radio.NodeID]*route
	daoSeq uint32
	daoTk  *sim.Ticker

	inflightByFrame map[*radio.Frame]*inflight

	ops       *protocol.Ops // sink only
	deliverFn func(uid uint32, hops uint8)

	athx  []ATHXSample
	stats Stats
}

// ATHXSample is one Fig-8 scatter point: a downward packet received at
// this node after travelling Hops transmissions.
type ATHXSample = protocol.ATHXSample

var _ node.Protocol = (*RPL)(nil)
var _ protocol.ControlProtocol = (*RPL)(nil)

// Name identifies the protocol family for uniform stacks.
func (r *RPL) Name() string { return "rpl" }

// New creates an RPL instance on the node, registered with the runtime.
// The sink instance takes over the CTP sink delivery hook for DownAcks.
func New(n *node.Node, c *ctp.CTP, cfg Config, rng *rand.Rand) *RPL {
	r := &RPL{
		node:            n,
		eng:             n.Engine(),
		cfg:             cfg,
		rng:             rng,
		ctp:             c,
		isSink:          c.IsSink(),
		routes:          make(map[radio.NodeID]*route),
		inflightByFrame: make(map[*radio.Frame]*inflight),
	}
	if r.isSink {
		r.ops = protocol.NewOps(r.eng, cfg.ControlTimeout)
		c.SetDeliverFunc(r.handleCollect)
	}
	n.Register(r)
	return r
}

// Start begins periodic DAO advertisement (non-sink nodes) at a random
// phase; a DAO is also sent immediately on every parent change.
func (r *RPL) Start() {
	if r.isSink {
		return
	}
	r.ctp.OnParentChange(func(old, new radio.NodeID) { r.sendDAO() })
	r.daoTk = sim.NewTicker(r.eng, r.cfg.DAOInterval, r.sendDAO)
	r.daoTk.StartWithOffset(time.Duration(r.rng.Int64N(int64(r.cfg.DAOInterval))))
}

// Stop halts timers.
func (r *RPL) Stop() {
	if r.daoTk != nil {
		r.daoTk.Stop()
	}
}

// SetDeliveredFn installs a hook fired when this node consumes a downward
// packet addressed to it.
func (r *RPL) SetDeliveredFn(fn func(uid uint32, hops uint8)) { r.deliverFn = fn }

// Stats returns a snapshot of the statistics.
func (r *RPL) Stats() Stats {
	s := r.stats
	s.RouteCount = len(r.routes)
	return s
}

// ControlTx returns the node's downward transmissions (the Table III
// metric).
func (r *RPL) ControlTx() uint64 { return r.stats.DownSends }

// Detail exports the diagnostic counters the comparison studies report.
func (r *RPL) Detail() map[string]uint64 {
	return map[string]uint64{
		"daos":           r.stats.DAOSent,
		"drops-no-route": r.stats.DropNoRoute,
		"drops-retry":    r.stats.DropRetry,
	}
}

// ATHX returns the Fig-8 samples recorded at this node.
func (r *RPL) ATHX() []ATHXSample {
	out := make([]ATHXSample, len(r.athx))
	copy(out, r.athx)
	return out
}

// HasRoute reports whether this node stores a downward route for dst.
func (r *RPL) HasRoute(dst radio.NodeID) bool {
	rt, ok := r.routes[dst]
	return ok && r.eng.Now()-rt.at <= routeLifetime
}

// ErrNotSink is returned when control operations originate off-sink.
var ErrNotSink = errors.New("rpl: control operations originate at the sink")

// ErrNoRoute is returned when the sink has no stored route for dst. It
// wraps protocol.ErrNoRoute so protocol-agnostic runners can classify the
// failure.
var ErrNoRoute = fmt.Errorf("rpl: no stored downward route: %w", protocol.ErrNoRoute)

// SendControl routes app downward to dst; cb fires on the end-to-end ack
// or timeout.
func (r *RPL) SendControl(dst radio.NodeID, app any, cb func(Result)) (uint32, error) {
	if !r.isSink {
		return 0, ErrNotSink
	}
	if !r.HasRoute(dst) {
		return 0, ErrNoRoute
	}
	uid := r.ops.Open(dst, app, cb).UID
	r.forward(&Downward{UID: uid, Dst: dst, Hops: 1, App: app})
	return uid, nil
}

// sendDAO advertises this node upward.
func (r *RPL) sendDAO() {
	parent := r.ctp.Parent()
	if parent == ctp.NoParent {
		return
	}
	r.daoSeq++
	r.stats.DAOSent++
	_ = r.node.Send(&radio.Frame{
		Kind:    radio.FrameData,
		Dst:     parent,
		Size:    daoSize,
		Payload: &DAO{Target: r.node.ID(), Seq: r.daoSeq},
	})
}

// handleDAO stores the route and forwards the advertisement upward.
func (r *RPL) handleDAO(from radio.NodeID, d *DAO) {
	rt, ok := r.routes[d.Target]
	if ok && d.Seq != 0 && d.Seq < rt.seq {
		return // stale
	}
	if !ok {
		rt = &route{}
		r.routes[d.Target] = rt
	}
	rt.next = from
	rt.seq = d.Seq
	rt.at = r.eng.Now()
	if r.isSink {
		return
	}
	parent := r.ctp.Parent()
	if parent == ctp.NoParent {
		return
	}
	_ = r.node.Send(&radio.Frame{
		Kind:    radio.FrameData,
		Dst:     parent,
		Size:    daoSize,
		Payload: &DAO{Target: d.Target, Seq: d.Seq},
	})
}

// forward routes a downward packet one hop via the stored table.
func (r *RPL) forward(pkt *Downward) {
	rt, ok := r.routes[pkt.Dst]
	if !ok || r.eng.Now()-rt.at > routeLifetime {
		r.stats.DropNoRoute++
		return
	}
	r.sendDown(rt.next, &inflight{pkt: pkt, retries: maxRetries})
}

// sendDown transmits one attempt of a downward packet to next.
func (r *RPL) sendDown(next radio.NodeID, inf *inflight) {
	f := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     next,
		Size:    downSize,
		Payload: inf.pkt,
	}
	r.inflightByFrame[f] = inf
	if err := r.node.Send(f); err != nil {
		delete(r.inflightByFrame, f)
		r.stats.DropRetry++
		return
	}
	r.stats.DownSends++
}

// handleDownward consumes or relays a received downward packet.
func (r *RPL) handleDownward(pkt *Downward) {
	r.athx = append(r.athx, ATHXSample{Hops: pkt.Hops, At: r.eng.Now()})
	if pkt.Dst == r.node.ID() {
		r.stats.Delivered++
		if r.deliverFn != nil {
			r.deliverFn(pkt.UID, pkt.Hops)
		}
		_ = r.ctp.SendToSink(&DownAck{UID: pkt.UID, From: r.node.ID(), Hops: pkt.Hops})
		return
	}
	r.forward(&Downward{UID: pkt.UID, Dst: pkt.Dst, Hops: pkt.Hops + 1, App: pkt.App})
}

// handleCollect resolves end-to-end acks at the sink.
func (r *RPL) handleCollect(origin radio.NodeID, app any) {
	if ack, ok := app.(*DownAck); ok {
		r.ops.Ack(ack.UID, ack.From, ack.Hops)
	}
}

// --- node.Protocol ---

// Owns implements node.Protocol.
func (r *RPL) Owns(payload any) bool {
	switch payload.(type) {
	case *DAO, *Downward:
		return true
	}
	return false
}

// Classify implements node.Protocol.
func (r *RPL) Classify(f *radio.Frame) mac.Classification {
	if f.Dst == r.node.ID() {
		return mac.Classification{Decision: mac.AckAndDeliver}
	}
	return mac.Classification{Decision: mac.Ignore}
}

// Deliver implements node.Protocol.
func (r *RPL) Deliver(f *radio.Frame) {
	switch p := f.Payload.(type) {
	case *DAO:
		r.handleDAO(f.Src, p)
	case *Downward:
		r.handleDownward(p)
	}
}

// OnSendDone implements node.Protocol.
func (r *RPL) OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool) {
	// Every RPL unicast outcome (DAO or downward) informs the shared link
	// estimator; without this, asymmetric links are invisible to the tree.
	r.ctp.ReportLinkOutcome(f.Dst, ok)
	inf, tracked := r.inflightByFrame[f]
	if !tracked {
		return
	}
	delete(r.inflightByFrame, f)
	if ok {
		return
	}
	inf.retries--
	if inf.retries < 0 {
		r.stats.DropRetry++
		return
	}
	// Deterministic retry through the same stored route (RPL has no
	// anycast alternative — the paper's point).
	r.sendDown(f.Dst, inf)
}
