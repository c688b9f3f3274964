package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// Controller-side errors.
var (
	ErrNotSink     = errors.New("core: control operations originate at the sink")
	ErrUnknownCode = errors.New("core: destination path code unknown to the controller")
	ErrSelfControl = errors.New("core: sink cannot be its own control destination")
)

// SendControl originates a control operation from the sink toward dst,
// carrying app. cb (optional) fires exactly once with the outcome: on the
// end-to-end acknowledgement, or on timeout/undeliverability (possibly
// after the Re-Tele rescue attempt).
func (e *Engine) SendControl(dst radio.NodeID, app any, cb func(Result)) (uint32, error) {
	return e.SendControlWith(dst, app, SendOpts{}, cb)
}

// SendOpts tunes one control dispatch beyond the engine defaults.
type SendOpts struct {
	// NoRescue suppresses the Re-Tele rescue detour for this operation:
	// callers holding fresh route-confirmation state (the command
	// service's route cache) skip the redundant probe and let the
	// operation resolve at the first timeout.
	NoRescue bool
}

// SendControlWith is SendControl with per-operation options.
func (e *Engine) SendControlWith(dst radio.NodeID, app any, opts SendOpts, cb func(Result)) (uint32, error) {
	if !e.isSink {
		return 0, ErrNotSink
	}
	if dst == e.node.ID() {
		return 0, ErrSelfControl
	}
	info, ok := e.registry[dst]
	if !ok {
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpUnroutable, Dst: dst})
		return 0, fmt.Errorf("%w: node %d", ErrUnknownCode, dst)
	}
	return e.launchControl(dst, info.Code, app, opts, cb), nil
}

// launchControl opens one resolved-code control operation and sends it
// its first hop. Shared by the single-operation entry points and the
// batch carrier's lone-member and no-shared-prefix fallbacks.
func (e *Engine) launchControl(dst radio.NodeID, code PathCode, app any, opts SendOpts, cb func(Result)) uint32 {
	uid := e.openOp(dst, app, opts, cb)
	c := &Control{UID: uid, Op: uid, Dst: dst, DstCode: code, App: app}
	e.forwardControl(e.newCtrl(uid, c, 0, false))
	return uid
}

// openOp opens one operation at the sink: a fresh UID, its pending record
// and timeout, and the op.issue span root.
func (e *Engine) openOp(dst radio.NodeID, app any, opts SendOpts, cb func(Result)) uint32 {
	p := &pendingControl{dst: dst, app: app, sentAt: e.eng.Now(), cb: cb, noRescue: opts.NoRescue}
	p.op = e.armPending(p)
	e.emitOp(telemetry.Event{Kind: telemetry.KindOpIssue, Op: p.op, UID: p.op, Dst: dst})
	return p.op
}

// armPending files p under the next wire UID with a fresh timeout.
func (e *Engine) armPending(p *pendingControl) uint32 {
	e.uidSeq++
	uid := e.uidSeq
	p.timeout = e.eng.Schedule(e.cfg.ControlTimeout, func() { e.stalled(uid) })
	e.pending[uid] = p
	return uid
}

// KnowsCode reports whether the controller has a code for dst.
func (e *Engine) KnowsCode(dst radio.NodeID) bool {
	if e.registry == nil {
		return false
	}
	_, ok := e.registry[dst]
	return ok
}

// DstCode returns the registered path code of dst without copying the
// whole registry, for callers (like the sink command plane's subtree
// grouping) that resolve codes per operation.
func (e *Engine) DstCode(dst radio.NodeID) (PathCode, bool) {
	info, ok := e.registry[dst]
	return info.Code, ok
}

// resolveAck completes a pending operation on the end-to-end ack.
func (e *Engine) resolveAck(ack *E2EAck) {
	p, ok := e.pending[ack.UID]
	if !ok {
		return
	}
	delete(e.pending, ack.UID)
	p.timeout.Cancel()
	lat := e.eng.Now() - p.sentAt
	if e.bus.Wants(telemetry.LayerCore) {
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpE2EAck, Op: p.op, UID: ack.UID,
			Src: ack.From, Hops: ack.Hops, Value: lat.Seconds()})
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpResult, Op: p.op, UID: ack.UID,
			Dst: p.dst, Value: 1})
	}
	if p.cb != nil {
		p.cb(Result{
			UID:      ack.UID,
			Dst:      ack.From,
			OK:       true,
			Latency:  lat,
			E2EHops:  ack.Hops,
			Detoured: p.detoured,
		})
	}
}

// stalled fires when no e2e ack arrived in time, or when the sink's own
// forwarding (backtracked packets included) gives up first: either the
// packet never made it or its acknowledgement was lost on a blocked upward
// path. Both are what the Section III-C4 countermeasure addresses (the
// rescue relay also carries the ack back on its own tree), so one rescue
// attempt is made before giving up.
func (e *Engine) stalled(uid uint32) {
	p, ok := e.pending[uid]
	if !ok {
		return
	}
	if e.tryRescue(uid, p) {
		return
	}
	e.failPending(uid, p)
}

func (e *Engine) failPending(uid uint32, p *pendingControl) {
	delete(e.pending, uid)
	p.timeout.Cancel()
	e.stats.SendFailures++
	e.emitOp(telemetry.Event{Kind: telemetry.KindOpResult, Op: p.op, UID: uid, Dst: p.dst, Value: 0})
	if p.cb != nil {
		p.cb(Result{
			UID:      uid,
			Dst:      p.dst,
			OK:       false,
			Latency:  e.eng.Now() - p.sentAt,
			Detoured: p.detoured,
		})
	}
}

// tryRescue implements the destination-unreachable countermeasure
// (Section III-C4): route to a code-divergent neighbor K of the
// destination with a good link, and have K deliver directly.
func (e *Engine) tryRescue(uid uint32, p *pendingControl) bool {
	if !e.cfg.Rescue || p.rescued || p.noRescue || e.oracle == nil {
		return false
	}
	dstInfo, ok := e.registry[p.dst]
	if !ok {
		return false
	}
	k := e.pickRescueRelay(p.dst, dstInfo.Code)
	if k == radio.BroadcastID {
		return false
	}
	kInfo := e.registry[k]
	p.rescued = true
	p.detoured = true
	e.stats.Rescues++

	// The rescue attempt gets its own UID on the wire so relays that
	// already carry state for the original attempt participate afresh;
	// both UIDs resolve to the same pending operation.
	delete(e.pending, uid)
	p.timeout.Cancel()
	uid2 := e.armPending(p)

	e.emitOp(telemetry.Event{Kind: telemetry.KindOpRescue, Op: p.op, UID: uid2, Dst: k,
		Note: "re-tele detour via rescue relay"})
	c := &Control{
		UID:      uid2,
		Op:       p.op,
		Dst:      k,
		DstCode:  kInfo.Code,
		Detour:   true,
		FinalDst: p.dst,
		App:      p.app,
	}
	e.forwardControl(e.newCtrl(uid2, c, 0, false))
	return true
}

// pickRescueRelay chooses the destination neighbor with a path code
// diverging from the destination's as early as possible ("a neighbor node
// of the destination with different path code to the greatest extent") and
// a high-quality link to it.
func (e *Engine) pickRescueRelay(dst radio.NodeID, dstCode PathCode) radio.NodeID {
	const minQuality = 0.6
	best := radio.BroadcastID
	bestDivergence := -1
	bestQuality := 0.0
	for _, k := range e.oracle.NeighborsOf(dst) {
		if k == dst || k == e.node.ID() || e.unreachable[k] {
			continue
		}
		info, ok := e.registry[k]
		if !ok {
			continue
		}
		// A candidate whose code prefixes the destination's sits ON the
		// failed primary path — often the suspected-dead hop itself, which
		// the bare divergence metric would otherwise rank highest (a prefix
		// shares the least suffix). The detour must leave that path.
		if info.Code.IsPrefixOf(dstCode) {
			continue
		}
		q := e.oracle.LinkQuality(k, dst)
		if q < minQuality {
			continue
		}
		// Divergence: smaller common prefix = more divergent path.
		div := dstCode.Len() - info.Code.CommonPrefixLen(dstCode)
		if div > bestDivergence || (div == bestDivergence && q > bestQuality) {
			best = k
			bestDivergence = div
			bestQuality = q
		}
	}
	return best
}

// PendingOp is a read-only snapshot of one in-flight control operation,
// exposed for invariant checkers (liveness: every pending op must resolve
// within a bounded multiple of the control timeout).
type PendingOp struct {
	UID     uint32
	Op      uint32
	Dst     radio.NodeID
	SentAt  time.Duration
	Rescued bool
}

// PendingOps returns the in-flight control operations sorted by UID.
func (e *Engine) PendingOps() []PendingOp {
	ops := make([]PendingOp, 0, len(e.pending))
	for uid, p := range e.pending {
		ops = append(ops, PendingOp{UID: uid, Op: p.op, Dst: p.dst, SentAt: p.sentAt, Rescued: p.rescued})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].UID < ops[j].UID })
	return ops
}
