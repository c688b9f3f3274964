package protocol

import (
	"sort"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// Op is one in-flight sink-side control operation. The table owns its
// lifecycle; openers read UID for the wire and may set NoRescue, and the
// stall hook may set Detoured before re-arming.
type Op struct {
	// ID is the operation's first UID: the span id every telemetry event
	// of the operation carries, across re-arms.
	ID       uint32
	UID      uint32 // wire UID of the current attempt
	Dst      radio.NodeID
	App      any
	SentAt   time.Duration
	Detoured bool // copied into the Result: a rescue left the coded path
	NoRescue bool // asks the stall hook not to re-arm this operation

	cb    func(Result)
	timer sim.EventRef
}

// Ops is the sink-side operation table every control protocol settles its
// operations through (Section III-C5): each operation resolves exactly
// once into a Result, on its end-to-end acknowledgement or on timeout.
// One counter numbers every attempt the sink puts on the wire.
type Ops struct {
	eng     *sim.Engine
	timeout time.Duration
	seq     uint32
	live    map[uint32]*Op
	// onStall runs when an operation times out or stalls; it reports
	// whether it re-armed the operation (which then stays live).
	onStall  func(*Op) bool
	expireFn func(any) // pre-bound for alloc-free ScheduleArg

	bus  *telemetry.Bus
	node radio.NodeID
}

// NewOps returns an empty table whose operations time out after timeout.
func NewOps(eng *sim.Engine, timeout time.Duration) *Ops {
	t := &Ops{eng: eng, timeout: timeout, live: make(map[uint32]*Op)}
	t.expireFn = t.expire
	return t
}

// SetTelemetry makes the table emit the core-layer op.issue, op.e2e-ack
// and op.result events, attributed to node, before each callback runs.
func (t *Ops) SetTelemetry(bus *telemetry.Bus, node radio.NodeID) {
	t.bus, t.node = bus, node
}

// OnStall installs the hook run when an operation times out or Stall is
// called for it. The hook re-arms the operation (via Rearm) and returns
// true, or returns false to let it fail.
func (t *Ops) OnStall(fn func(*Op) bool) { t.onStall = fn }

// NextUID draws a UID from the table's counter without opening an
// operation (for sink traffic settled elsewhere, such as scoped floods).
func (t *Ops) NextUID() uint32 {
	t.seq++
	return t.seq
}

// Open files a new operation for dst under a fresh UID and arms its
// timeout. cb (optional) fires exactly once with the outcome.
func (t *Ops) Open(dst radio.NodeID, app any, cb func(Result)) *Op {
	op := &Op{Dst: dst, App: app, SentAt: t.eng.Now(), cb: cb}
	op.ID = t.arm(op)
	t.emit(telemetry.Event{Kind: telemetry.KindOpIssue, Op: op.ID, UID: op.ID, Dst: dst})
	return op
}

// Rearm moves a live operation to a fresh UID with a fresh timeout; acks
// for the old UID are ignored from then on. The send time is kept, so the
// eventual latency covers every attempt.
func (t *Ops) Rearm(op *Op) uint32 {
	delete(t.live, op.UID)
	op.timer.Cancel()
	return t.arm(op)
}

func (t *Ops) arm(op *Op) uint32 {
	op.UID = t.NextUID()
	op.timer = t.eng.ScheduleArg(t.timeout, t.expireFn, op)
	t.live[op.UID] = op
	return op.UID
}

// Ack resolves the operation attempted under uid as delivered to from,
// hops transmissions away. Acks for unknown, settled or superseded UIDs
// are ignored.
func (t *Ops) Ack(uid uint32, from radio.NodeID, hops uint8) {
	op, ok := t.live[uid]
	if !ok {
		return
	}
	t.settle(op)
	lat := t.eng.Now() - op.SentAt
	if t.bus.Wants(telemetry.LayerCore) {
		t.emit(telemetry.Event{Kind: telemetry.KindOpE2EAck, Op: op.ID, UID: uid,
			Src: from, Hops: hops, Value: lat.Seconds()})
		t.emit(telemetry.Event{Kind: telemetry.KindOpResult, Op: op.ID, UID: uid,
			Dst: op.Dst, Value: 1})
	}
	if op.cb != nil {
		op.cb(Result{UID: uid, Dst: from, OK: true, Latency: lat, E2EHops: hops, Detoured: op.Detoured})
	}
}

// Stall runs the timeout path of the operation attempted under uid now,
// for a sink that learns early that the attempt cannot complete.
func (t *Ops) Stall(uid uint32) {
	if op, ok := t.live[uid]; ok {
		t.expire(op)
	}
}

// expire is the ScheduleArg target of every operation timeout.
func (t *Ops) expire(arg any) {
	op := arg.(*Op)
	if t.onStall != nil && t.onStall(op) {
		return
	}
	t.settle(op)
	t.emit(telemetry.Event{Kind: telemetry.KindOpResult, Op: op.ID, UID: op.UID, Dst: op.Dst, Value: 0})
	if op.cb != nil {
		op.cb(Result{UID: op.UID, Dst: op.Dst, OK: false, Latency: t.eng.Now() - op.SentAt, Detoured: op.Detoured})
	}
}

func (t *Ops) settle(op *Op) {
	delete(t.live, op.UID)
	op.timer.Cancel()
}

func (t *Ops) emit(ev telemetry.Event) {
	ev.Layer = telemetry.LayerCore
	ev.Node = t.node
	t.bus.Emit(ev)
}

// Pending returns a snapshot of the in-flight operations sorted by UID,
// for invariant checkers (liveness: every pending op must resolve within
// a bounded multiple of the control timeout).
func (t *Ops) Pending() []Op {
	ops := make([]Op, 0, len(t.live))
	for _, op := range t.live {
		ops = append(ops, *op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].UID < ops[j].UID })
	return ops
}
