package core

import (
	"time"

	"teleadjust/internal/mac"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// Ack-election priorities: the destination acks first, then on-path relays
// ordered by progress, then relays that only know a qualifying neighbor,
// and the expected relay last (it is the floor everyone else outbids).
const (
	prioDestination = 0
	prioExpected    = 7
)

// progressPrio maps a progress advantage (matched bits beyond the
// qualification bar) to an ack slot: more progress acks earlier.
func progressPrio(adv int) int {
	switch {
	case adv >= 6:
		return 1
	case adv >= 4:
		return 2
	case adv >= 2:
		return 3
	default:
		return 4
	}
}

// countControlSend books one logical control transmission plus the
// destination path-code bytes it puts on the air (the per-codec
// header-cost metric).
func (e *Engine) countControlSend(c *Control) {
	e.stats.ControlSends++
	e.stats.HeaderBytes += uint64(c.DstCode.SizeBytes())
	for i := range c.Batch {
		e.stats.HeaderBytes += uint64(c.Batch[i].Suffix.SizeBytes())
	}
}

// codeMatch returns how many leading bits of dst code prefixes, or the
// old code while it stays valid, whichever is longer (0 if neither).
func codeMatch(code, old PathCode, oldUntil, now time.Duration, dst PathCode) int {
	best := 0
	if code.IsPrefixOf(dst) {
		best = code.Len()
	}
	if !old.IsEmpty() && now < oldUntil && old.IsPrefixOf(dst) && old.Len() > best {
		best = old.Len()
	}
	return best
}

// myMatch returns the length of this node's code (or still-valid old code)
// prefix-matched against dst, 0 if neither matches.
func (e *Engine) myMatch(dst PathCode) int {
	code := EmptyCode
	if e.haveCode {
		code = e.myCode
	}
	return codeMatch(code, e.myOldCode, e.oldCodeUntil, e.eng.Now(), dst)
}

// neighborMatches scans the fresh, reachable, non-excluded neighbor codes
// once and returns, among those matching dst beyond the bar, the neighbor
// with the least match and its length (BroadcastID, 0 if none) and the
// longest match (0 if none). Ties go to the lowest id.
func (e *Engine) neighborMatches(dst PathCode, bar int, excluded map[radio.NodeID]bool) (minID radio.NodeID, minLen, maxLen int) {
	now := e.eng.Now()
	minID, maxID := radio.BroadcastID, radio.BroadcastID
	for id, nc := range e.neighborCodes {
		if e.unreachable[id] || excluded[id] || now-nc.heardAt > neighborCodeTTL {
			continue
		}
		ml := codeMatch(nc.code, nc.oldCode, nc.oldUntil, now, dst)
		if ml <= bar {
			continue
		}
		if minID == radio.BroadcastID || ml < minLen || (ml == minLen && id < minID) {
			minID, minLen = id, ml
		}
		if ml > maxLen || (ml == maxLen && id < maxID) {
			maxID, maxLen = id, ml
		}
	}
	return minID, minLen, maxLen
}

// classifyControl implements the three relay conditions of Section III-C:
// (1) being the expected relay, (2) owning a longer matched prefix than the
// expected relay, (3) knowing a neighbor that satisfies (2) — plus the
// destination itself.
func (e *Engine) classifyControl(f *radio.Frame, c *Control) mac.Classification {
	me := e.node.ID()
	trace := e.bus.Wants(telemetry.LayerCore)
	if c.FinalLeg {
		if f.Dst == me {
			if trace {
				e.emitOp(telemetry.Event{Kind: telemetry.KindOpRelayCase, Op: c.Op, UID: c.UID,
					Hops: c.Hops, Note: "final-leg destination"})
			}
			return mac.Classification{Decision: mac.AckAndDeliver, Prio: prioDestination}
		}
		return mac.Classification{Decision: mac.Ignore}
	}
	if c.Dst == me {
		// Destination (or detour target): always accept.
		if trace {
			note := "destination"
			if c.Detour {
				note = "detour target"
			}
			e.emitOp(telemetry.Event{Kind: telemetry.KindOpRelayCase, Op: c.Op, UID: c.UID,
				Hops: c.Hops, Note: note})
		}
		return mac.Classification{Decision: mac.AckAndDeliver, Prio: prioDestination}
	}
	if st, ok := e.ctrl[c.UID]; ok && st != nil {
		// Already carried (or known undeliverable through us). If we are
		// still streaming this packet and overhear it further along the
		// path, the downstream relay's ack was lost but the packet has
		// progressed: treat the overheard forward as an implicit ack.
		if st.status == ctrlForwarding && f.Src != me &&
			st.frame != nil && c.Hops > st.ctrl.Hops {
			e.node.MAC().CancelSend(st.frame)
		}
		return mac.Classification{Decision: mac.Ignore}
	}
	bar := int(c.ExpectedLen)
	if e.cfg.Opportunistic {
		if m := e.myMatch(c.DstCode); m > bar {
			if trace {
				e.emitOp(telemetry.Event{Kind: telemetry.KindOpRelayCase, Op: c.Op, UID: c.UID,
					Hops: c.Hops, Value: float64(m - bar), Note: "opportunistic self-match"})
			}
			return mac.Classification{Decision: mac.AckAndDeliver, Prio: progressPrio(m - bar)}
		}
		if _, _, nm := e.neighborMatches(c.DstCode, bar, nil); nm > 0 {
			prio := progressPrio(nm-bar) + 2
			if prio > prioExpected-1 {
				prio = prioExpected - 1
			}
			if trace {
				e.emitOp(telemetry.Event{Kind: telemetry.KindOpRelayCase, Op: c.Op, UID: c.UID,
					Hops: c.Hops, Value: float64(nm - bar), Note: "opportunistic neighbor-match"})
			}
			return mac.Classification{Decision: mac.AckAndDeliver, Prio: prio}
		}
	}
	if c.Expected == me {
		prio := prioExpected
		if !e.cfg.Opportunistic {
			prio = 0 // strict mode: only the expected relay answers
		}
		if trace {
			e.emitOp(telemetry.Event{Kind: telemetry.KindOpRelayCase, Op: c.Op, UID: c.UID,
				Hops: c.Hops, Note: "expected relay"})
		}
		return mac.Classification{Decision: mac.AckAndDeliver, Prio: prio}
	}
	return mac.Classification{Decision: mac.Ignore}
}

// deliverControl handles an accepted (and already link-acked) control
// packet: consume at the destination, hand off at the detour target, or
// relay downward.
func (e *Engine) deliverControl(f *radio.Frame, c *Control) {
	me := e.node.ID()
	e.athx = append(e.athx, ATHXSample{Hops: c.Hops, At: e.eng.Now()})
	switch {
	case c.FinalLeg && f.Dst == me:
		e.consume(c, f.Src, true)
	case c.Dst == me && !c.Detour && len(c.Batch) > 0:
		// Piggyback carrier arrived at its split node: fan the members out.
		e.deliverBatch(f, c)
	case c.Dst == me && !c.Detour:
		e.consume(c, f.Src, false)
	case c.Dst == me && c.Detour:
		// Rescue relay K: deliver directly to the true destination.
		leg := &Control{
			UID:      c.UID,
			Op:       c.Op,
			Dst:      c.FinalDst,
			DstCode:  c.DstCode,
			FinalDst: c.FinalDst,
			FinalLeg: true,
			Hops:     c.Hops + 1,
			App:      c.App,
		}
		e.countControlSend(leg)
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpDetourLeg, Op: c.Op, UID: c.UID,
			Dst: c.FinalDst, Hops: leg.Hops})
		e.send(c.FinalDst, controlFrameSize(leg), leg)
	default:
		e.relay(f, c)
	}
}

// relay installs fresh forwarding state for a packet handed over by f's
// sender and sends it on.
func (e *Engine) relay(f *radio.Frame, c *Control) {
	e.forwardControl(e.newCtrl(c.UID, c, f.Src, true))
}

// consume delivers a control packet addressed to this node and returns the
// end-to-end acknowledgement — over CTP normally, or back through the
// delivering neighbor on the rescue path (Section III-C5).
func (e *Engine) consume(c *Control, from radio.NodeID, direct bool) {
	if e.opDelivered(c.Op) {
		e.stats.ControlDupDeliv++
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpDupConsume, Op: c.Op, UID: c.UID,
			Src: from, Hops: c.Hops})
	} else {
		e.stats.ControlDeliv++
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpConsume, Op: c.Op, UID: c.UID,
			Src: from, Hops: c.Hops})
		if e.deliverFn != nil {
			e.deliverFn(c.Op, c.Hops)
		}
	}
	ack := E2EAck{UID: c.UID, From: e.node.ID(), Hops: c.Hops}
	if direct {
		e.send(from, 10, &AckRelay{Ack: ack})
		return
	}
	_ = e.ctp.SendToSink(&ack)
}

// opDelivered marks and reports per-operation app delivery (dedup across
// rescue attempts, which arrive under fresh wire UIDs).
func (e *Engine) opDelivered(op uint32) bool {
	st, ok := e.ctrl[op]
	if ok && st.status == ctrlDone {
		return true
	}
	e.putCtrl(op, &ctrlState{status: ctrlDone, at: e.eng.Now()})
	return false
}

// forwardControl sends the packet one hop downward: pick the expected
// relay (the qualifying candidate with the *least* progress, so every
// better-placed node can outbid it — Figure 4c) and stream via the MAC.
func (e *Engine) forwardControl(st *ctrlState) {
	c := st.ctrl
	bar := int(c.ExpectedLen)
	if m := e.myMatch(c.DstCode); m > bar {
		bar = m
	}
	// Among qualifying neighbors, the expected relay is the one with the
	// LEAST match above the bar (maximum forwarding opportunity —
	// Figure 4c sets C, not D). With no qualifying neighbor known, fall
	// back to naming the destination with the bar as qualification
	// length, so any on-path node closer than us can still take it.
	expected := c.Dst
	expectedLen := bar
	if minID, minLen, _ := e.neighborMatches(c.DstCode, bar, st.excluded); minID != radio.BroadcastID {
		expected = minID
		expectedLen = minLen
	}
	fwd := new(Control)
	*fwd = *c
	fwd.Expected, fwd.ExpectedLen, fwd.Hops = expected, uint8(expectedLen), c.Hops+1
	st.ctrl = fwd
	e.countControlSend(fwd)
	if !e.isSink {
		e.stats.ControlRelayed++
	}
	if e.bus.Wants(telemetry.LayerCore) {
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpForward, Op: fwd.Op, UID: fwd.UID,
			Dst: expected, Hops: fwd.Hops, Value: float64(expectedLen)})
	}
	frame := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     radio.BroadcastID,
		Size:    controlFrameSize(fwd),
		Payload: fwd,
	}
	st.frame = frame
	if err := e.node.Send(frame); err != nil {
		st.frame = nil
		e.handleForwardFailure(st, expected)
	}
}

// send hands one best-effort data frame to the MAC. A refused send needs
// no handling here: the sender's own recovery (the next beacon, the sink's
// timeout) covers it as it covers a lost frame.
func (e *Engine) send(dst radio.NodeID, size int, payload any) {
	_ = e.node.Send(&radio.Frame{Kind: radio.FrameData, Dst: dst, Size: size, Payload: payload})
}

// controlSendDone reacts to the MAC's verdict on a forwarded control
// packet.
func (e *Engine) controlSendDone(c *Control, ok bool) {
	if c.FinalLeg {
		// The rescue final leg is fire-and-forget; the sink's timeout
		// recovers a loss.
		if !ok {
			e.stats.SendFailures++
		}
		return
	}
	st, tracked := e.ctrl[c.UID]
	if !tracked || st.status != ctrlForwarding {
		return
	}
	if ok {
		st.status = ctrlDone
		st.at = e.eng.Now()
		return
	}
	e.handleForwardFailure(st, c.Expected)
}

// handleForwardFailure retries with a different expected relay, then
// backtracks (Section III-C3).
func (e *Engine) handleForwardFailure(st *ctrlState, expected radio.NodeID) {
	c := st.ctrl
	if expected != c.Dst {
		// Flag the silent relay unreachable until its next routing beacon.
		st.excluded[expected] = true
		e.unreachable[expected] = true
	}
	st.attempts--
	if st.attempts > 0 {
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpRetry, Op: c.Op, UID: c.UID,
			Dst: expected, Value: float64(st.attempts)})
		e.forwardControl(st)
		return
	}
	// Exhausted: backtrack to the previous upward relay.
	st.status = ctrlFailed
	st.at = e.eng.Now()
	if st.havePrev {
		e.stats.Backtracks++
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpBacktrack, Op: c.Op, UID: c.UID,
			Dst: st.prev})
	}
	e.returnUpstream(st, c.UID)
}

// returnUpstream hands a packet this node gave up on back to the relay it
// came from as feedback; where the operation originated, the sink treats
// it as stalled.
func (e *Engine) returnUpstream(st *ctrlState, uid uint32) {
	switch {
	case st.havePrev:
		fb := &Feedback{UID: uid, FailedRelay: e.node.ID(), Ctrl: st.ctrl}
		e.stats.FeedbackSends++
		e.send(st.prev, feedbackFrameSize(fb), fb)
	case e.isSink:
		e.ops.Stall(st.ctrl.UID)
	}
}

// classifyFeedback accepts a feedback packet addressed to us, and — the
// Figure 5(a) refinement — lets an overhearing on-path node that can still
// reach the destination intercept the backtrack and resume forwarding
// ("C's forwarding can stop the transmission of B's feedback").
func (e *Engine) classifyFeedback(f *radio.Frame, fb *Feedback) mac.Classification {
	me := e.node.ID()
	if f.Dst == me {
		return mac.Classification{Decision: mac.AckAndDeliver, Prio: prioExpected}
	}
	if !e.cfg.Opportunistic || !e.cfg.FeedbackIntercept || fb.Ctrl == nil {
		return mac.Classification{Decision: mac.Ignore}
	}
	if st, ok := e.ctrl[fb.UID]; ok && st != nil && st.status != ctrlDone {
		// We already failed (or are struggling with) this packet.
		return mac.Classification{Decision: mac.Ignore}
	}
	if fb.FailedRelay == me {
		return mac.Classification{Decision: mac.Ignore}
	}
	// Intercept only with a direct on-path match beyond the failed
	// relay's vantage; this node then owns the packet again.
	if m := e.myMatch(fb.Ctrl.DstCode); m > 0 {
		return mac.Classification{Decision: mac.AckAndDeliver, Prio: progressPrio(m)}
	}
	return mac.Classification{Decision: mac.Ignore}
}

// deliverFeedback reopens a packet returned by a downstream relay — at its
// addressee, or at an on-path interceptor that won the overhearing
// election (Figure 5a).
func (e *Engine) deliverFeedback(f *radio.Frame, fb *Feedback) {
	// The failed relay is excluded for this operation only (below): its
	// feedback frame proves the node itself is reachable — it just could
	// not progress this packet. A global unreachable mark here would
	// blacklist a live first hop for unrelated operations, including the
	// Re-Tele rescue attempt that follows a backtracked failure.
	st, ok := e.ctrl[fb.UID]
	if !ok {
		// An interceptor's upstream, should it fail too, is the relay
		// that emitted this feedback.
		st = e.newCtrl(fb.UID, fb.Ctrl, f.Src, f.Src != e.node.ID())
	}
	// The state may be a bare delivery marker (opDelivered) or carry no
	// control copy yet; normalize before reopening.
	if st.excluded == nil {
		st.excluded = make(map[radio.NodeID]bool)
	}
	if st.ctrl == nil {
		st.ctrl = fb.Ctrl
	}
	if st.ctrl == nil {
		return
	}
	st.excluded[fb.FailedRelay] = true
	st.backtracks--
	if st.backtracks < 0 {
		// Give up here too: propagate the feedback upstream.
		st.status = ctrlFailed
		e.emitOp(telemetry.Event{Kind: telemetry.KindOpGiveUp, Op: st.ctrl.Op, UID: fb.UID,
			Src: fb.FailedRelay})
		e.returnUpstream(st, fb.UID)
		return
	}
	if e.bus.Wants(telemetry.LayerCore) {
		kind := telemetry.KindOpReopen
		if f.Dst != e.node.ID() {
			// The Figure 5(a) refinement: we overheard someone else's
			// feedback and are resuming forwarding ourselves.
			kind = telemetry.KindOpIntercept
		}
		e.emitOp(telemetry.Event{Kind: kind, Op: fb.Ctrl.Op, UID: fb.UID, Src: fb.FailedRelay})
	}
	// The expected-relay bar must be recomputed from our own vantage:
	// restart from our match. fb.Ctrl is shared with the sender's state,
	// so the restart works on a copy.
	restart := *fb.Ctrl
	restart.UID, restart.ExpectedLen = fb.UID, 0
	st.ctrl = &restart
	st.status = ctrlForwarding
	st.attempts = e.cfg.RetryRounds + 1
	e.stats.Backtracks++
	e.forwardControl(st)
}

// newCtrl is the one constructor of per-UID forwarding state: a fresh
// retry and backtrack budget, no exclusions, forwarding since now. prev is
// the upward relay that handed the packet over (havePrev false where the
// operation originates).
func (e *Engine) newCtrl(uid uint32, c *Control, prev radio.NodeID, havePrev bool) *ctrlState {
	st := &ctrlState{
		ctrl:       c,
		prev:       prev,
		havePrev:   havePrev,
		attempts:   e.cfg.RetryRounds + 1,
		backtracks: e.cfg.Backtracks,
		excluded:   make(map[radio.NodeID]bool),
		status:     ctrlForwarding,
		at:         e.eng.Now(),
	}
	e.putCtrl(uid, st)
	return st
}

// putCtrl is the one insertion point into the per-UID state table, which
// it keeps bounded: once 512 entries are held, every settled entry older
// than two control timeouts goes.
func (e *Engine) putCtrl(uid uint32, st *ctrlState) {
	e.ctrl[uid] = st
	if len(e.ctrl) < 512 {
		return
	}
	cutoff := e.eng.Now() - 2*e.cfg.ControlTimeout
	for uid, st := range e.ctrl {
		if st.at < cutoff && st.status != ctrlForwarding {
			delete(e.ctrl, uid)
		}
	}
}
