package core

import (
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// buildExt assembles the TeleAdjusting state piggybacked on each routing
// beacon.
func (e *Engine) buildExt() any {
	ext := &TeleExt{
		HasCode:  e.haveCode,
		Code:     e.myCode,
		Depth:    e.depth,
		Parent:   e.ctp.Parent(),
		Position: e.position,
	}
	if e.children.Allocated() {
		ext.SpaceBits = uint8(e.children.SpaceBits())
		// Attach allocations while any child is unconfirmed, so lost
		// TeleAdjusting beacons are repaired by subsequent routing beacons.
		if !e.children.AllConfirmed() {
			ext.Allocations = e.children.Entries()
		}
	}
	return ext
}

// onParentChange reacts to CTP parent changes: the routing-found event
// arms code construction, and later switches invalidate the current code
// (the new parent allocates a fresh position).
func (e *Engine) onParentChange(old, new radio.NodeID) {
	if e.isSink {
		return
	}
	if old != ctp.NoParent && e.haveCode {
		// Keep the superseded code matchable for a while.
		e.retireCode()
	}
	e.position = 0
	e.havePosition = false
	e.label = PathCode{}
	e.haveLabel = false
	e.haveParent = false
	if !e.haveCode {
		e.haveEligibleAt = false // the clock restarts with the new parent
	}
	// If we already know the new parent's published code (from overheard
	// beacons), request a position proactively instead of waiting for its
	// next beacon — Trickle intervals can be long in a settled network.
	if nc, ok := e.neighborCodes[new]; ok && nc.spaceBits > 0 {
		e.lastRequest = e.eng.Now()
		e.stats.PositionReqs++
		e.send(new, 8, &PositionRequest{})
	}
}

// onBeacon processes every received routing beacon: neighbor code learning,
// child discovery, and parent/child consistency (Algorithms 2 and 3).
func (e *Engine) onBeacon(from radio.NodeID, b *ctp.Beacon) {
	now := e.eng.Now()
	// Hearing a routing beacon clears the unreachable flag (Section
	// III-C3: "until it hears the corresponding routing beacon from them
	// again").
	delete(e.unreachable, from)

	ext, ok := b.Ext.(*TeleExt)
	if !ok || ext == nil {
		// Plain beacon: child discovery still works from the routing
		// parent field.
		if b.Parent == e.node.ID() {
			e.observeChild(from)
		}
		return
	}
	// Neighbor code table upkeep.
	if ext.HasCode {
		nc := e.neighborCodes[from]
		if nc == nil {
			nc = &neighborCode{}
			e.neighborCodes[from] = nc
		}
		if !nc.code.IsEmpty() && !nc.code.Equal(ext.Code) {
			nc.oldCode = nc.code
			nc.oldUntil = now + oldCodeTTL
		}
		nc.code = ext.Code
		nc.depth = ext.Depth
		nc.spaceBits = ext.SpaceBits
		nc.heardAt = now
	}

	if from == e.ctp.Parent() {
		e.onParentBeacon(from, ext)
	}
	if ext.Parent == e.node.ID() {
		e.onChildBeacon(from, ext)
	} else {
		// A former child that moved away frees its position.
		if e.children.Position(from) != 0 {
			e.children.Remove(from)
		}
	}
}

// onParentBeacon implements the child side (Algorithm 3).
func (e *Engine) onParentBeacon(from radio.NodeID, ext *TeleExt) {
	if e.isSink || !ext.HasCode {
		return
	}
	if !e.haveCode && !e.haveEligibleAt {
		e.eligibleAt = e.eng.Now()
		e.haveEligibleAt = true
	}
	parentChanged := !e.haveParent ||
		!e.parentCode.Equal(ext.Code) ||
		e.parentSpace != ext.SpaceBits
	e.parentCode = ext.Code
	e.parentSpace = ext.SpaceBits
	e.parentDepth = ext.Depth
	e.haveParent = true

	// Scan the attached allocations for my entry.
	for _, a := range ext.Allocations {
		if a.Child != e.node.ID() {
			continue
		}
		labelChanged := false
		if !a.Label.IsEmpty() && (!e.haveLabel || !e.label.Equal(a.Label)) {
			// Adopt the explicit label (variable-length codecs) before the
			// position so the code recomputes once, from consistent state.
			e.label = a.Label
			e.haveLabel = true
			labelChanged = true
		}
		if !e.havePosition || e.position != a.Position {
			e.adoptPosition(a.Position)
		}
		if !a.Confirmed {
			e.sendConfirm(from)
		}
		if parentChanged || labelChanged {
			e.recomputeCode()
		}
		return
	}

	switch {
	case e.havePosition:
		// Space extension or upstream code change: recompute.
		if parentChanged {
			e.recomputeCode()
		}
	case ext.SpaceBits > 0:
		// Parent has allocated but I have no position: request one
		// (Section III-B4), rate limited.
		if e.eng.Now()-e.lastRequest >= requestMinGap {
			e.lastRequest = e.eng.Now()
			e.stats.PositionReqs++
			e.send(from, 8, &PositionRequest{})
		}
	}
}

// onChildBeacon implements the parent side (Algorithm 2) driven by the
// child's piggybacked position announcement.
func (e *Engine) onChildBeacon(from radio.NodeID, ext *TeleExt) {
	e.observeChild(from)
	if !e.children.Allocated() {
		return
	}
	if ext.Position == 0 {
		// Child without a position: allocate (or look up) and acknowledge.
		e.allocateAndAck(from)
		return
	}
	out, pos, relabel, err := e.children.Confirm(from, ext.Position)
	if err != nil {
		return
	}
	switch out {
	case ConfirmMatched:
		e.stats.Confirms++
		if !e.codecPositional && ext.HasCode && e.haveCode {
			// Label consistency (variable-length codecs): the child's
			// position matches, but its announced code may still derive
			// from a stale label after a relabel. Unconfirm and re-ack so
			// the current label reaches it.
			if label := e.children.LabelOf(from); !label.IsEmpty() {
				if want, err := e.myCode.Append(label); err == nil && !want.Equal(ext.Code) {
					e.children.Unconfirm(from)
					e.sendAllocationAck(from, pos)
				}
			}
		}
	case ConfirmReallocated, ConfirmNew:
		if relabel {
			e.announceSpaceChange()
		}
		e.sendAllocationAck(from, pos)
	}
}

// observeChild records child discovery and (re)arms the initial-allocation
// timer.
func (e *Engine) observeChild(from radio.NodeID) {
	if e.children.Observe(from) {
		e.lastChildNews = e.eng.Now()
		if !e.children.Allocated() {
			e.allocTimer.Start(e.cfg.AllocDelay)
		}
	}
}

// maybeAllocate fires AllocDelay after the last new-child discovery
// (Algorithm 1's trigger condition).
func (e *Engine) maybeAllocate() {
	if e.children.Allocated() || e.children.PendingLen() == 0 {
		return
	}
	if !e.haveCode {
		// Cannot publish prefixes without a code yet; retry shortly.
		e.allocTimer.Start(e.cfg.AllocDelay / 2)
		return
	}
	if err := e.children.AllocateInitial(); err != nil {
		return
	}
	// "Consecutively broadcast two TeleAdjusting beacon attaching all
	// <child, position, flag> information": reset trickle now; the
	// allocations ride on every beacon until confirmed.
	e.ctp.TriggerBeacon()
}

// allocateAndAck gives a position to a known-or-new child and unicasts the
// allocation acknowledgement.
func (e *Engine) allocateAndAck(child radio.NodeID) {
	pos, relabel, err := e.children.Request(child)
	if err != nil {
		return
	}
	if relabel {
		e.announceSpaceChange()
	}
	e.sendAllocationAck(child, pos)
}

func (e *Engine) sendAllocationAck(child radio.NodeID, pos uint16) {
	e.stats.AllocationAcks++
	label := e.children.LabelOf(child) // empty for positional codecs
	size := 8 + e.myCode.SizeBytes()
	if !label.IsEmpty() {
		size += label.SizeBytes()
	}
	e.send(child, size, &AllocationAck{
		Position:    pos,
		SpaceBits:   uint8(e.children.SpaceBits()),
		ParentCode:  e.myCode,
		ParentDepth: e.depth,
		Label:       label,
	})
}

// announceSpaceChange reacts to a label-space change on allocation: a
// bit-space extension (positional codecs) or a relabel (variable-length
// codecs). Either way all children must learn the new state, so beacon
// immediately; the child table has already unconfirmed relabeled entries
// so their new labels ride the beacons.
func (e *Engine) announceSpaceChange() {
	if e.codecPositional {
		e.spaceExtended()
	} else {
		e.relabeled()
	}
}

// spaceExtended reacts to a bit-space extension: all children must learn
// the wider width, so beacon immediately.
func (e *Engine) spaceExtended() {
	e.stats.SpaceExtensions++
	e.ctp.TriggerBeacon()
}

// relabeled is the variable-length counterpart of spaceExtended.
func (e *Engine) relabeled() {
	e.stats.Relabels++
	e.ctp.TriggerBeacon()
}

// deliverPositionRequest is the parent side of Section III-B4.
func (e *Engine) deliverPositionRequest(child radio.NodeID) {
	e.observeChild(child)
	if !e.children.Allocated() {
		// Initial allocation hasn't fired; the request marks child
		// pressure, so allocate as soon as the timer allows.
		return
	}
	e.allocateAndAck(child)
}

// deliverAllocationAck is the child side: adopt everything in one step.
func (e *Engine) deliverAllocationAck(from radio.NodeID, a *AllocationAck) {
	if !e.haveCode && !e.haveEligibleAt {
		e.eligibleAt = e.eng.Now()
		e.haveEligibleAt = true
	}
	if from != e.ctp.Parent() {
		return // stale ack from a previous parent
	}
	e.parentCode = a.ParentCode
	e.parentSpace = a.SpaceBits
	e.parentDepth = a.ParentDepth
	e.haveParent = true
	if !a.Label.IsEmpty() {
		e.label = a.Label
		e.haveLabel = true
	}
	e.adoptPosition(a.Position)
	e.recomputeCode()
	e.sendConfirm(from)
}

func (e *Engine) adoptPosition(pos uint16) {
	e.position = pos
	e.havePosition = true
	e.recomputeCode()
}

func (e *Engine) sendConfirm(parent radio.NodeID) {
	e.send(parent, 8, &ConfirmFrame{Position: e.position})
}

// recomputeCode derives this node's code from the parent's published code
// and our label — the explicit one for variable-length codecs, or the
// fixed-width encoding of our position for positional codecs; on change it
// retires the old code, triggers a beacon (children must re-derive), and
// reports upward.
func (e *Engine) recomputeCode() {
	if e.isSink || !e.haveParent || !e.havePosition || e.parentSpace == 0 {
		return
	}
	var code PathCode
	var err error
	if e.haveLabel {
		code, err = e.parentCode.Append(e.label)
	} else {
		code, err = e.parentCode.Extend(e.position, int(e.parentSpace))
	}
	if err != nil {
		return
	}
	if e.haveCode && code.Equal(e.myCode) {
		return
	}
	first := !e.haveCode
	if e.haveCode {
		e.retireCode()
	} else {
		e.codeAt = e.eng.Now()
	}
	e.myCode = code
	e.haveCode = true
	e.depth = e.parentDepth + 1
	e.stats.CodeChanges++
	if e.bus.Wants(telemetry.LayerCoding) {
		kind := telemetry.KindCodeChanged
		if first {
			kind = telemetry.KindCodeAssigned
		}
		e.bus.Emit(telemetry.Event{Layer: telemetry.LayerCoding, Kind: kind,
			Node: e.node.ID(), Hops: e.depth})
	}
	e.ctp.TriggerBeacon()
	e.sendCodeReport()
	// A late-arriving code must not stall children that were discovered
	// long ago: allocate as soon as the quiet period is already over.
	if !e.children.Allocated() && e.children.PendingLen() > 0 &&
		e.eng.Now()-e.lastChildNews >= e.cfg.AllocDelay {
		e.maybeAllocate()
	}
}

// retireCode keeps the superseded code matchable for oldCodeTTL.
func (e *Engine) retireCode() {
	e.myOldCode = e.myCode
	e.oldCodeUntil = e.eng.Now() + oldCodeTTL
}

// sendCodeReport pushes the current code to the controller over CTP,
// rate-limited: during initial construction codes change in cascades and
// per-change reports would congest the upward plane.
func (e *Engine) sendCodeReport() {
	if e.isSink || !e.haveCode || !e.ctp.HasRoute() {
		return
	}
	const minGap = 10 * time.Second
	now := e.eng.Now()
	if now-e.lastReport < minGap {
		if !e.reportDirty {
			e.reportDirty = true
			e.eng.Schedule(minGap-(now-e.lastReport), func() {
				e.reportDirty = false
				e.sendCodeReport()
			})
		}
		return
	}
	e.lastReport = now
	_ = e.ctp.SendToSink(&CodeReport{Code: e.myCode, Depth: e.depth})
}

// handleCollect is the sink-side CTP delivery hook: registry updates, e2e
// acks, and pass-through of application payloads.
func (e *Engine) handleCollect(origin radio.NodeID, app any) {
	switch p := app.(type) {
	case *CodeReport:
		e.registry[origin] = CodeInfo{Code: p.Code, Depth: p.Depth, At: e.eng.Now()}
		if e.bus.Wants(telemetry.LayerCoding) {
			e.bus.Emit(telemetry.Event{Layer: telemetry.LayerCoding,
				Kind: telemetry.KindCodeReported, Node: e.node.ID(),
				Src: origin, Hops: p.Depth})
		}
	case *E2EAck:
		e.ops.Ack(p.UID, p.From, p.Hops)
	case *ScopeAck:
		e.resolveScopeAck(p)
	default:
		if e.appDelive != nil {
			e.appDelive(origin, app)
		}
	}
}
