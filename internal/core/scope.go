package core

// Subtree-scoped dissemination: the one-to-many / one-to-all extension the
// paper claims for path coding (Section I). A scope is a code prefix; the
// packet floods exactly the code subtree under it. Ancestors of the scope
// relay it downward; members consume it and relay it on; everyone else
// ignores it. The addressing does all the work: no group state exists
// anywhere in the network.

import (
	"time"

	"teleadjust/internal/mac"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
)

// ScopedControl floods App to every node whose path code extends Scope.
// An empty scope addresses the whole network (one-to-all).
type ScopedControl struct {
	UID   uint32
	Scope PathCode
	Hops  uint8
	App   any
}

// NoAck marks scoped floods as pure broadcasts for the MAC: every member
// must receive them, so there is no single acknowledger to elect.
func (*ScopedControl) NoAck() bool { return true }

// ScopeAck is a member's end-to-end acknowledgement (upward via CTP).
type ScopeAck struct {
	UID  uint32
	From radio.NodeID
}

// ScopeResult reports a scoped operation's outcome at the sink.
type ScopeResult struct {
	UID uint32
	// Expected is the number of registry codes within the scope when the
	// operation started (the controller's best knowledge of membership).
	Expected int
	// Acked lists the members whose acknowledgements arrived in time.
	Acked []radio.NodeID
}

// Coverage returns len(Acked)/Expected (1 when nothing was expected).
func (r ScopeResult) Coverage() float64 {
	if r.Expected == 0 {
		return 1
	}
	return float64(len(r.Acked)) / float64(r.Expected)
}

type pendingScope struct {
	scope   PathCode
	sentAt  time.Duration
	cb      func(ScopeResult)
	timeout sim.EventRef
	res     ScopeResult
	seen    map[radio.NodeID]bool
}

// scopeFrameSize computes the MAC frame size of a scoped control packet.
func scopeFrameSize(sc *ScopedControl) int {
	return macHeaderBytes + 5 + sc.Scope.SizeBytes()
}

// SendScopeControl floods app to the code subtree under scope. cb fires
// once, after ControlTimeout, with the collected member acknowledgements.
// Use the zero-value PathCode (or the sink's own code) for one-to-all.
func (e *Engine) SendScopeControl(scope PathCode, app any, cb func(ScopeResult)) (uint32, error) {
	if !e.isSink {
		return 0, ErrNotSink
	}
	e.uidSeq++
	uid := e.uidSeq
	p := &pendingScope{
		scope:  scope,
		sentAt: e.eng.Now(),
		cb:     cb,
		seen:   make(map[radio.NodeID]bool),
		res:    ScopeResult{UID: uid},
	}
	for _, info := range e.registry {
		if scope.IsPrefixOf(info.Code) {
			p.res.Expected++
		}
	}
	p.timeout = e.eng.Schedule(e.cfg.ControlTimeout, func() {
		delete(e.pendingScopes, uid)
		if p.cb != nil {
			p.cb(p.res)
		}
	})
	if e.pendingScopes == nil {
		e.pendingScopes = make(map[uint32]*pendingScope)
	}
	e.pendingScopes[uid] = p
	sc := &ScopedControl{UID: uid, Scope: scope, App: app}
	e.relayScope(sc)
	// Mid-timeout repair round: busy relays are deaf while streaming their
	// own traffic, so a one-shot flood can die at the first hop. Re-seed
	// the flood if coverage is still incomplete.
	e.eng.Schedule(e.cfg.ControlTimeout/2, func() {
		if pp, ok := e.pendingScopes[uid]; ok && (pp.res.Expected == 0 || len(pp.res.Acked) < pp.res.Expected) {
			e.relayScope(sc)
		}
	})
	return uid, nil
}

// scopeRole classifies this node against a scope.
type scopeRole uint8

const (
	scopeOutside  scopeRole = iota
	scopeMember             // my code extends the scope: consume and relay
	scopeAncestor           // my code is a prefix of the scope: relay toward it
)

func (e *Engine) scopeRoleOf(scope PathCode) scopeRole {
	if !e.haveCode {
		return scopeOutside
	}
	if scope.IsPrefixOf(e.myCode) {
		return scopeMember
	}
	if e.myCode.IsPrefixOf(scope) {
		return scopeAncestor
	}
	// Old code still valid? Members keep serving briefly across code
	// changes.
	if !e.myOldCode.IsEmpty() && e.eng.Now() < e.oldCodeUntil && scope.IsPrefixOf(e.myOldCode) {
		return scopeMember
	}
	return scopeOutside
}

// classifyScope accepts scoped floods for members and ancestors.
func (e *Engine) classifyScope(sc *ScopedControl) mac.Classification {
	if e.scopeRoleOf(sc.Scope) == scopeOutside {
		return mac.Classification{Decision: mac.Ignore}
	}
	return mac.Classification{Decision: mac.Deliver}
}

// deliverScope consumes (members) and re-floods (everyone in-role), once
// per UID.
func (e *Engine) deliverScope(sc *ScopedControl) {
	if !e.scopeSeen.firstSight(sc.UID, e.eng.Now(), 2*e.cfg.ControlTimeout) {
		return
	}
	role := e.scopeRoleOf(sc.Scope)
	if role == scopeOutside {
		return
	}
	if role == scopeMember && !e.isSink {
		e.stats.ControlDeliv++
		if e.deliverFn != nil {
			e.deliverFn(sc.UID, sc.Hops)
		}
		_ = e.ctp.SendToSink(&ScopeAck{UID: sc.UID, From: e.node.ID()})
	}
	e.relayScope(sc)
}

// relayScope re-broadcasts the flood one hop deeper: one copy now and one
// echo a moment later, so neighbors that were transmitting (deaf) during
// the first stream still catch the flood.
func (e *Engine) relayScope(sc *ScopedControl) {
	e.sendScopeCopy(sc)
	echo := time.Second + time.Duration(e.rng.Int64N(int64(2*time.Second)))
	e.eng.Schedule(echo, func() { e.sendScopeCopy(sc) })
}

func (e *Engine) sendScopeCopy(sc *ScopedControl) {
	fwd := &ScopedControl{UID: sc.UID, Scope: sc.Scope, Hops: sc.Hops + 1, App: sc.App}
	e.stats.ControlSends++
	e.stats.HeaderBytes += uint64(sc.Scope.SizeBytes())
	e.send(radio.BroadcastID, scopeFrameSize(fwd), fwd)
}

// resolveScopeAck records a member acknowledgement at the sink.
func (e *Engine) resolveScopeAck(ack *ScopeAck) {
	p, ok := e.pendingScopes[ack.UID]
	if !ok || p.seen[ack.From] {
		return
	}
	p.seen[ack.From] = true
	p.res.Acked = append(p.res.Acked, ack.From)
	if p.res.Expected > 0 && len(p.res.Acked) >= p.res.Expected {
		// Full coverage: resolve early.
		p.timeout.Cancel()
		delete(e.pendingScopes, ack.UID)
		if p.cb != nil {
			p.cb(p.res)
		}
	}
}
