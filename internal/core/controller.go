package core

import (
	"errors"
	"fmt"

	"teleadjust/internal/protocol"
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
	op := e.ops.Open(dst, app, cb)
	op.NoRescue = opts.NoRescue
	c := &Control{UID: op.UID, Op: op.UID, Dst: dst, DstCode: code, App: app}
	e.forwardControl(e.newCtrl(op.UID, c, 0, false))
	return op.UID
}

// KnowsCode reports whether the controller has a code for dst.
func (e *Engine) KnowsCode(dst radio.NodeID) bool {
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

// onStall is the operation table's timeout hook. No e2e ack arrived in
// time, or the sink's own forwarding (backtracked packets included) gave
// up first: either the packet never made it or its acknowledgement was
// lost on a blocked upward path. Both are what the Section III-C4
// countermeasure addresses (the rescue relay also carries the ack back on
// its own tree), so one rescue attempt is made before giving up.
func (e *Engine) onStall(op *protocol.Op) bool {
	if e.tryRescue(op) {
		return true
	}
	e.stats.SendFailures++
	return false
}

// tryRescue implements the destination-unreachable countermeasure
// (Section III-C4): route to a code-divergent neighbor K of the
// destination with a good link, and have K deliver directly.
func (e *Engine) tryRescue(op *protocol.Op) bool {
	if !e.cfg.Rescue || op.Detoured || op.NoRescue || e.oracle == nil {
		return false
	}
	dstInfo, ok := e.registry[op.Dst]
	if !ok {
		return false
	}
	k := e.pickRescueRelay(op.Dst, dstInfo.Code)
	if k == radio.BroadcastID {
		return false
	}
	kInfo := e.registry[k]
	op.Detoured = true
	e.stats.Rescues++

	// The rescue attempt gets its own UID on the wire so relays that
	// already carry state for the original attempt participate afresh;
	// acks for the first UID are ignored from here on.
	uid2 := e.ops.Rearm(op)

	e.emitOp(telemetry.Event{Kind: telemetry.KindOpRescue, Op: op.ID, UID: uid2, Dst: k,
		Note: "re-tele detour via rescue relay"})
	c := &Control{
		UID:      uid2,
		Op:       op.ID,
		Dst:      k,
		DstCode:  kInfo.Code,
		Detour:   true,
		FinalDst: op.Dst,
		App:      op.App,
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

// PendingOps returns a snapshot of the in-flight control operations
// sorted by UID.
func (e *Engine) PendingOps() []protocol.Op {
	if e.ops == nil {
		return nil
	}
	return e.ops.Pending()
}
