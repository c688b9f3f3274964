package core

import (
	"errors"
	"fmt"

	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// ErrEmptyBatch is returned by SendControlBatch for a zero-member request.
var ErrEmptyBatch = errors.New("core: empty batch request")

// BatchRequest is one command handed to SendControlBatch. Payload is the
// encoded application payload charged on the wire; App is the in-memory
// application value delivered to the destination (mirroring Control's
// App/wire split).
type BatchRequest struct {
	Dst     radio.NodeID
	App     any
	Payload []byte
	Cb      func(Result)
}

// SendControlBatch dispatches a set of control operations that share a
// path-code prefix as one downward piggyback carrier: the carrier routes
// to the deepest registered node whose code prefixes every member's code
// and splits there into per-subtree sub-carriers and singles. Each member
// keeps its own UID, pending record, timeout, and (if needed) Re-Tele
// rescue — only the shared downward leg is coalesced.
//
// The returned UID slice is aligned with reqs. Members whose codes are
// unknown get UID 0 and their callback fires synchronously with OK=false;
// the rest of the batch proceeds. When no useful shared prefix exists
// (the deepest common ancestor is the sink itself), members are
// dispatched as individual operations.
func (e *Engine) SendControlBatch(reqs []BatchRequest) ([]uint32, error) {
	if !e.isSink {
		return nil, ErrNotSink
	}
	if len(reqs) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(reqs) > MaxBatchMembers {
		return nil, fmt.Errorf("core: batch of %d exceeds %d members", len(reqs), MaxBatchMembers)
	}
	uids := make([]uint32, len(reqs))

	// Resolve codes; unroutable members fail in place without sinking the
	// batch (matching SendControl's unknown-code behavior).
	type routable struct {
		idx  int
		code PathCode
	}
	members := make([]routable, 0, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		if r.Dst == e.node.ID() {
			if r.Cb != nil {
				r.Cb(Result{Dst: r.Dst, OK: false})
			}
			continue
		}
		info, ok := e.registry[r.Dst]
		if !ok {
			e.emitOp(telemetry.Event{Kind: telemetry.KindOpUnroutable, Dst: r.Dst})
			if r.Cb != nil {
				r.Cb(Result{Dst: r.Dst, OK: false})
			}
			continue
		}
		members = append(members, routable{idx: i, code: info.Code})
	}
	if len(members) == 0 {
		return uids, nil
	}

	// Split node: the deepest registered node whose code prefixes the
	// common prefix of every member code — scan with order-independent
	// best tracking (longest code, lowest id tiebreak) so map iteration
	// order cannot leak into the deterministic trace. The sink itself
	// seeds the search.
	splitNode, splitCode := e.node.ID(), e.myCode
	if len(members) > 1 {
		common := members[0].code
		for _, m := range members[1:] {
			common = common.Prefix(common.CommonPrefixLen(m.code))
		}
		for id, info := range e.registry {
			if !info.Code.IsPrefixOf(common) {
				continue
			}
			if l := info.Code.Len(); l > splitCode.Len() || (l == splitCode.Len() && id < splitNode) {
				splitNode, splitCode = id, info.Code
			}
		}
	}
	if splitNode == e.node.ID() {
		// A lone member, or no shared downward leg to save: dispatch
		// individually.
		for _, m := range members {
			r := &reqs[m.idx]
			uids[m.idx] = e.launchControl(r.Dst, m.code, r.App, SendOpts{}, r.Cb)
		}
		return uids, nil
	}

	// Per-member bookkeeping: each member is a full operation (UID,
	// pending record, timeout, issue event); only the carrier is shared.
	batch := make([]BatchMember, len(members))
	for i, m := range members {
		r := &reqs[m.idx]
		uid := e.ops.Open(r.Dst, r.App, r.Cb).UID
		uids[m.idx] = uid
		batch[i] = BatchMember{
			UID:     uid,
			Op:      uid,
			Dst:     r.Dst,
			Suffix:  m.code.Suffix(splitCode.Len()),
			Payload: r.Payload,
			App:     r.App,
		}
	}

	// The carrier borrows its first member's identity on the wire; the
	// member list is authoritative at the split.
	c := &Control{
		UID:     batch[0].UID,
		Op:      batch[0].Op,
		Dst:     splitNode,
		DstCode: splitCode,
		Batch:   batch,
	}
	e.forwardControl(e.newCtrl(c.UID, c, 0, false))
	return uids, nil
}

// deliverBatch splits an arrived piggyback carrier at its destination:
// members addressed here are consumed, the rest regroup by child subtree
// into sub-carriers (≥2 members) or plain singles and continue downward.
func (e *Engine) deliverBatch(f *radio.Frame, c *Control) {
	// A retransmitted or overheard duplicate carrier must not split twice:
	// the carrier UID doubles as its first member's onward UID, so e.ctrl
	// cannot dedup it (classifyControl accepts Dst==me before the UID
	// check).
	if !e.batchSeen.firstSight(c.UID, e.eng.Now(), 2*e.cfg.ControlTimeout) {
		return
	}

	// Consume members addressed to the split node itself.
	rest := make([]BatchMember, 0, len(c.Batch))
	for i := range c.Batch {
		m := &c.Batch[i]
		if m.Suffix.IsEmpty() || m.Dst == e.node.ID() {
			mc := &Control{UID: m.UID, Op: m.Op, Dst: m.Dst, Hops: c.Hops, App: m.App}
			e.consume(mc, f.Src, false)
			continue
		}
		rest = append(rest, *m)
	}
	if len(rest) == 0 {
		return
	}

	// Regroup the remainder by child subtree. Entries() is sorted by child
	// id, so grouping — and therefore sub-carrier identity — is
	// deterministic.
	claimed := make([]bool, len(rest))
	for _, entry := range e.children.Entries() {
		label := e.childLabel(entry)
		if label.IsEmpty() {
			continue
		}
		group := make([]BatchMember, 0, len(rest))
		for i := range rest {
			if !claimed[i] && label.IsPrefixOf(rest[i].Suffix) {
				claimed[i] = true
				group = append(group, rest[i])
			}
		}
		switch {
		case len(group) >= 2:
			e.launchSubCarrier(f, c, entry.Child, label, group)
		case len(group) == 1:
			e.launchBatchSingle(f, c, group[0])
		}
	}
	// Members matching no local child still hold a valid full code: let the
	// regular opportunistic machinery hunt for them as singles.
	for i := range rest {
		if !claimed[i] {
			e.launchBatchSingle(f, c, rest[i])
		}
	}
}

// childLabel returns the code bits a child appends to this node's code:
// derived from position and space width for positional codecs, the
// explicit label otherwise.
func (e *Engine) childLabel(entry ChildEntry) PathCode {
	if !e.codecPositional {
		return entry.Label
	}
	label, err := EmptyCode.Extend(entry.Position, e.children.SpaceBits())
	if err != nil {
		return EmptyCode
	}
	return label
}

// launchSubCarrier continues a batch subgroup downward as a narrower
// carrier addressed to the child subtree root, with member suffixes
// re-based past the child's label.
func (e *Engine) launchSubCarrier(f *radio.Frame, c *Control, child radio.NodeID, label PathCode, group []BatchMember) {
	dstCode, err := c.DstCode.Append(label)
	if err != nil {
		for _, m := range group {
			e.launchBatchSingle(f, c, m)
		}
		return
	}
	sub := make([]BatchMember, len(group))
	for i, m := range group {
		m.Suffix = m.Suffix.Suffix(label.Len())
		sub[i] = m
	}
	sc := &Control{
		UID:     sub[0].UID,
		Op:      sub[0].Op,
		Dst:     child,
		DstCode: dstCode,
		Hops:    c.Hops,
		Batch:   sub,
	}
	e.relay(f, sc)
}

// launchBatchSingle continues one batch member downward as a plain control
// packet with its full reconstructed destination code.
func (e *Engine) launchBatchSingle(f *radio.Frame, c *Control, m BatchMember) {
	dstCode, err := c.DstCode.Append(m.Suffix)
	if err != nil {
		return
	}
	sc := &Control{
		UID:     m.UID,
		Op:      m.Op,
		Dst:     m.Dst,
		DstCode: dstCode,
		Hops:    c.Hops,
		App:     m.App,
	}
	e.relay(f, sc)
}
