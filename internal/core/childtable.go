package core

import (
	"fmt"
	"sort"

	"teleadjust/internal/radio"
)

// ChildEntry is one row of the child node table (Table I in the paper):
// the child's identity, its allocated position in the parent's label
// space, its current bit label (only populated by non-positional codecs —
// Algorithm 1's children derive their label from position and width), and
// whether the child has confirmed the allocation.
type ChildEntry struct {
	Child     radio.NodeID
	Position  uint16
	Label     PathCode
	Confirmed bool
}

// ReservePolicy computes how many positions to provision for n discovered
// children (Algorithm 1's χ). The paper writes χ = N + [10, N/2]; the
// worked example (Figure 2: two children in a 2-bit space) pins the
// reserve to min(10, ceil(N/2)) with a floor of 1.
type ReservePolicy func(n int) int

// DefaultReserve is the paper-consistent reserve: clamp(ceil(N/2), 1, 10).
func DefaultReserve(n int) int {
	r := (n + 1) / 2
	if r < 1 {
		r = 1
	}
	if r > 10 {
		r = 10
	}
	return n + r
}

// GenerousReserve always provisions ten extra positions (the literal
// "N + 10" reading of Algorithm 1); used by the reserve-policy ablation.
func GenerousReserve(n int) int { return n + 10 }

// TightReserve provisions no headroom at all; used by the ablation to show
// the cost of frequent space extensions.
func TightReserve(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// ChildTable is a parent node's position-allocation state. It owns the
// identity and confirmation bookkeeping of Algorithms 1–2 and delegates
// the actual label-space decisions (widths, positions, bit labels) to the
// codec's Allocator. Positions are 1-based: position 0 is never allocated
// by any codec, so a parent's own code is never confusable with a child
// pattern.
type ChildTable struct {
	entries map[radio.NodeID]*ChildEntry
	pending map[radio.NodeID]bool // discovered but not yet allocated
	codec   Codec
	alloc   Allocator
}

// NewChildTable creates an empty table running the paper codec
// (Algorithm 1) with the given reserve policy (nil means DefaultReserve).
func NewChildTable(policy ReservePolicy) *ChildTable {
	return NewChildTableWithCodec(nil, policy)
}

// NewChildTableWithCodec creates an empty table running the given codec
// (nil means the paper codec) and reserve policy (nil means
// DefaultReserve).
func NewChildTableWithCodec(codec Codec, policy ReservePolicy) *ChildTable {
	if codec == nil {
		codec = PaperCodec()
	}
	return &ChildTable{
		entries: make(map[radio.NodeID]*ChildEntry),
		pending: make(map[radio.NodeID]bool),
		codec:   codec,
		alloc:   codec.NewAllocator(policy),
	}
}

// Codec returns the table's coding scheme.
func (t *ChildTable) Codec() Codec { return t.codec }

// Observe records a discovered child before initial allocation. It reports
// whether the child is new.
func (t *ChildTable) Observe(child radio.NodeID) bool {
	if _, ok := t.entries[child]; ok {
		return false
	}
	if t.pending[child] {
		return false
	}
	t.pending[child] = true
	return true
}

// Allocated reports whether initial allocation has run.
func (t *ChildTable) Allocated() bool { return t.alloc.Allocated() }

// SpaceBits returns π, the current label-space width put on beacons
// (0 before allocation).
func (t *ChildTable) SpaceBits() int { return t.alloc.SpaceBits() }

// Len returns the number of allocated children.
func (t *ChildTable) Len() int { return len(t.entries) }

// PendingLen returns the number of discovered-but-unallocated children.
func (t *ChildTable) PendingLen() int { return len(t.pending) }

// AllocateInitial runs the codec's initial allocation (Algorithm 1 for the
// paper codec): size the label space for the discovered children plus
// reserve, then deterministically allocate positions 1..n in ascending
// child-id order. It is an error to call it twice.
func (t *ChildTable) AllocateInitial() error {
	if t.Allocated() {
		return fmt.Errorf("core: initial allocation already done")
	}
	n := len(t.pending)
	if err := t.alloc.AllocateInitial(n); err != nil {
		return err
	}
	ids := make([]radio.NodeID, 0, n)
	for id := range t.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		t.entries[id] = &ChildEntry{Child: id, Position: uint16(i + 1)}
		delete(t.pending, id)
	}
	t.refreshLabels()
	return nil
}

// refreshLabels pulls the allocator's current labels into the entries
// (non-positional codecs only — Algorithm 1's labels live implicitly in
// (position, SpaceBits) and are never attached to entries, keeping the
// paper codec's wire image unchanged). An entry whose label changed is
// unconfirmed so the new label re-rides beacons until the child re-acks.
func (t *ChildTable) refreshLabels() {
	if t.codec.Positional() {
		return
	}
	for _, e := range t.entries {
		l, err := t.alloc.Label(e.Position)
		if err != nil {
			continue
		}
		if !l.Equal(e.Label) {
			e.Label = l
			e.Confirmed = false
		}
	}
}

// Request handles a position request from a child (Algorithm 2, the
// ID ∉ S branch): allocate a free position, growing the label space when
// full. It reports the allocated position and whether the allocation
// changed already-published state — a space extension for the paper codec,
// a relabel for variable-length codecs — which the caller must
// re-announce. The entry starts unconfirmed. Requests from known children
// return their existing position.
func (t *ChildTable) Request(child radio.NodeID) (pos uint16, relabel bool, err error) {
	if !t.Allocated() {
		return 0, false, fmt.Errorf("core: request before initial allocation")
	}
	if e, ok := t.entries[child]; ok {
		return e.Position, false, nil
	}
	p, relabel, err := t.alloc.Add()
	if err != nil {
		return 0, relabel, err
	}
	delete(t.pending, child)
	t.entries[child] = &ChildEntry{Child: child, Position: p}
	t.refreshLabels()
	return p, relabel, nil
}

// ConfirmOutcome describes the result of processing a child's announced
// position (Algorithm 2's maintenance branches).
type ConfirmOutcome uint8

// Confirm outcomes.
const (
	// ConfirmMatched: the announced position matches; flag set confirmed.
	ConfirmMatched ConfirmOutcome = iota + 1
	// ConfirmReallocated: mismatch; the child was given a fresh position
	// (returned by Confirm) and the flag reset.
	ConfirmReallocated
	// ConfirmNew: unknown child; a position was allocated.
	ConfirmNew
)

// Confirm processes a child's beacon announcing position p (Algorithm 2).
// For ConfirmReallocated/ConfirmNew, newPos is the allocation to
// acknowledge back; relabel reports a space extension or relabel.
func (t *ChildTable) Confirm(child radio.NodeID, p uint16) (out ConfirmOutcome, newPos uint16, relabel bool, err error) {
	if !t.Allocated() {
		return 0, 0, false, fmt.Errorf("core: confirm before initial allocation")
	}
	e, ok := t.entries[child]
	if !ok {
		newPos, relabel, err = t.Request(child)
		return ConfirmNew, newPos, relabel, err
	}
	if e.Position == p {
		e.Confirmed = true
		return ConfirmMatched, p, false, nil
	}
	// Mismatch: deterministically reallocate (keep the stored position —
	// the table is authoritative) and reset the flag so the child re-acks.
	e.Confirmed = false
	return ConfirmReallocated, e.Position, false, nil
}

// SetConfirmed marks a child's entry confirmed (confirmation frame).
func (t *ChildTable) SetConfirmed(child radio.NodeID, p uint16) bool {
	e, ok := t.entries[child]
	if !ok || e.Position != p {
		return false
	}
	e.Confirmed = true
	return true
}

// Unconfirm resets a child's confirmation flag (the parent detected the
// child holds a stale label and must re-adopt).
func (t *ChildTable) Unconfirm(child radio.NodeID) {
	if e, ok := t.entries[child]; ok {
		e.Confirmed = false
	}
}

// Remove drops a child (e.g. it switched parents), freeing its position
// for reuse.
func (t *ChildTable) Remove(child radio.NodeID) {
	if e, ok := t.entries[child]; ok {
		t.alloc.Release(e.Position)
	}
	delete(t.entries, child)
	delete(t.pending, child)
}

// Position returns the child's allocated position (0 if none).
func (t *ChildTable) Position(child radio.NodeID) uint16 {
	if e, ok := t.entries[child]; ok {
		return e.Position
	}
	return 0
}

// LabelOf returns the child's current bit label (empty for positional
// codecs and unknown children).
func (t *ChildTable) LabelOf(child radio.NodeID) PathCode {
	if e, ok := t.entries[child]; ok {
		return e.Label
	}
	return PathCode{}
}

// Entries returns allocated entries sorted by child id (a stable view for
// beacon piggybacking).
func (t *ChildTable) Entries() []ChildEntry {
	out := make([]ChildEntry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Child < out[j].Child })
	return out
}

// AllConfirmed reports whether every allocated child has confirmed.
func (t *ChildTable) AllConfirmed() bool {
	for _, e := range t.entries {
		if !e.Confirmed {
			return false
		}
	}
	return true
}
