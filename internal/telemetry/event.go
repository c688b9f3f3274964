// Package telemetry is the unified observability plane of the simulator:
// a simulation-time-stamped event bus crossing the radio, MAC, and
// control-protocol layers, a per-node gauge registry (event counters
// are not kept here: each layer's Stats() accessor is their read path),
// JSONL export, and a human-readable span renderer for per-operation
// lifecycle traces.
//
// Design constraints, in order:
//
//   - Determinism. Events are emitted synchronously from the simulation
//     loop and carry the virtual clock, so a run's event stream is a pure
//     function of its seed. Replicated runs keep one bus per replication
//     and merge collected events in seed order, which keeps parallel
//     replication byte-identical to serial.
//   - Near-free when disabled. A bus with no subscriber for a layer
//     rejects emissions on a single mask test; emitting components guard
//     their hot paths with Wants so no event structs are built for
//     layers nobody listens to.
//   - One stream, many consumers. The protocol invariant oracle, the
//     figure aggregations, and the operation traces all read the same
//     events, so they cannot disagree about what happened on the air.
package telemetry

import (
	"time"

	"teleadjust/internal/radio"
)

// Layer identifies the emitting subsystem of an event or gauge.
type Layer uint8

// Layers, bottom up.
const (
	// LayerRadio events mirror the medium trace: frame transmissions and
	// reception outcomes.
	LayerRadio Layer = iota
	// LayerMAC events cover the link-layer send lifecycle: stream starts,
	// ack/failure outcomes, anycast suppression, implicit-ack cancels.
	LayerMAC
	// LayerCore events trace control operations end to end: issue, relay
	// decisions, retries, backtracking, interception, rescue, delivery,
	// and the end-to-end result.
	LayerCore
	// LayerRun events are emitted by the experiment harness itself
	// (uniform per-protocol delivery notifications, phase markers).
	LayerRun
	// LayerSink events trace the sink command plane's queueing decisions:
	// enqueue, admission, retry re-queues, and final completion of each
	// scheduled control operation.
	LayerSink
	// LayerCoding events mark path-code cascade milestones per node: first
	// code assignment, code churn, and the sink registry learning a node's
	// code. A separate layer (not LayerCore) so the golden-pinned
	// operation traces stay byte-identical when a convergence probe
	// subscribes.
	LayerCoding

	numLayers = 6
)

// NumLayers is the number of defined layers; consumers aggregating
// per-layer state size their tables with it.
const NumLayers = int(numLayers)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerRadio:
		return "radio"
	case LayerMAC:
		return "mac"
	case LayerCore:
		return "core"
	case LayerRun:
		return "run"
	case LayerSink:
		return "sink"
	case LayerCoding:
		return "coding"
	}
	return "layer?"
}

// Kind classifies an event within its layer.
type Kind uint8

// Event kinds. The radio kinds mirror radio.TraceKind one to one.
const (
	KindUnknown Kind = iota

	// Radio layer.
	KindRadioTx
	KindRadioRxOK
	KindRadioRxCorrupt

	// MAC layer.
	KindMacSendStart
	KindMacSendAcked
	KindMacSendFailed
	KindMacSendBroadcastDone
	KindMacSendCancelled
	KindMacSuppressed

	// Core (control operation) layer.
	KindOpIssue      // sink originates a control operation
	KindOpForward    // a relay streams the packet one hop down
	KindOpRelayCase  // relay acceptance decision (Note holds the case)
	KindOpRetry      // forward failed; retrying with a re-chosen relay
	KindOpBacktrack  // retries exhausted; feedback sent upstream
	KindOpIntercept  // on-path node intercepted an overheard feedback
	KindOpReopen     // feedback addressee reopened the operation
	KindOpGiveUp     // backtrack budget exhausted at this relay
	KindOpRescue     // controller launched the Re-Tele detour
	KindOpDetourLeg  // rescue relay K hands off the final unicast leg
	KindOpConsume    // destination consumed the packet
	KindOpDupConsume // duplicate arrival at the destination
	KindOpE2EAck     // end-to-end acknowledgement reached the sink
	KindOpResult     // operation resolved at the sink (Value 1 ok, 0 fail)
	KindOpDelivered  // uniform cross-protocol delivery notification
	KindOpUnroutable // dispatch refused: no route/code for destination

	// Sink command-plane layer. Seq carries the scheduler ticket, which
	// identifies the queued operation across its whole lifecycle (the
	// protocol Op/UID only exist once the op is admitted and dispatched).
	KindSinkEnqueue  // operation entered the command queue
	KindSinkAdmit    // admission window opened; Value = queue wait (s)
	KindSinkRetry    // failed attempt re-queued; Value = attempts so far
	KindSinkComplete // operation resolved (Value 1 ok, 0 fail)
	KindSinkReject   // queue full; operation refused at submit
	KindSinkExpire   // per-op budget exhausted while still queued

	// Coding-milestone layer. Hops carries the node's code-tree depth at
	// the time of the milestone, which is what the convergence probe bins
	// by.
	KindCodeAssigned // node obtained its first path code
	KindCodeChanged  // node's code churned (re-derived to a different code)
	KindCodeReported // sink registry learned a node's code (Src = origin)

	// Command-service layer (emitted on LayerSink by internal/cmdsvc; only
	// present when the service's batching/backpressure features are on, so
	// pass-through traces stay byte-identical).
	KindSvcBatch       // batch flushed (Seq = batch id, Value = members, Note = prefix)
	KindSvcBatchMember // one member of a flushed batch (Seq = batch id, Op = uid)
	KindSvcShed        // submission shed at the admission gate (Note = stream name)
	KindSvcDelay       // submission deferred past high water (Note = stream name)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRadioTx:
		return "radio.tx"
	case KindRadioRxOK:
		return "radio.rx-ok"
	case KindRadioRxCorrupt:
		return "radio.rx-bad"
	case KindMacSendStart:
		return "mac.send-start"
	case KindMacSendAcked:
		return "mac.send-acked"
	case KindMacSendFailed:
		return "mac.send-failed"
	case KindMacSendBroadcastDone:
		return "mac.send-bcast-done"
	case KindMacSendCancelled:
		return "mac.send-cancelled"
	case KindMacSuppressed:
		return "mac.suppressed"
	case KindOpIssue:
		return "op.issue"
	case KindOpForward:
		return "op.forward"
	case KindOpRelayCase:
		return "op.relay"
	case KindOpRetry:
		return "op.retry"
	case KindOpBacktrack:
		return "op.backtrack"
	case KindOpIntercept:
		return "op.intercept"
	case KindOpReopen:
		return "op.reopen"
	case KindOpGiveUp:
		return "op.give-up"
	case KindOpRescue:
		return "op.rescue"
	case KindOpDetourLeg:
		return "op.detour-leg"
	case KindOpConsume:
		return "op.consume"
	case KindOpDupConsume:
		return "op.dup-consume"
	case KindOpE2EAck:
		return "op.e2e-ack"
	case KindOpResult:
		return "op.result"
	case KindOpDelivered:
		return "op.delivered"
	case KindOpUnroutable:
		return "op.unroutable"
	case KindSinkEnqueue:
		return "sink.enqueue"
	case KindSinkAdmit:
		return "sink.admit"
	case KindSinkRetry:
		return "sink.retry"
	case KindSinkComplete:
		return "sink.complete"
	case KindSinkReject:
		return "sink.reject"
	case KindSinkExpire:
		return "sink.expire"
	case KindCodeAssigned:
		return "code.assigned"
	case KindCodeChanged:
		return "code.changed"
	case KindCodeReported:
		return "code.reported"
	case KindSvcBatch:
		return "svc.batch"
	case KindSvcBatchMember:
		return "svc.batch-member"
	case KindSvcShed:
		return "svc.shed"
	case KindSvcDelay:
		return "svc.delay"
	}
	return "unknown"
}

// Event is one simulation-time-stamped observation. The scalar fields are
// kind-specific; unused ones stay zero. Events are plain values: sinks may
// retain them, but must not mutate the shared Frame.
type Event struct {
	// At is the virtual time the event was emitted (stamped by the bus).
	At    time.Duration `json:"at"`
	Layer Layer         `json:"-"`
	Kind  Kind          `json:"-"`
	// Node is the observing/acting node (transmitter for radio.tx,
	// receiver for radio.rx-*, the relay for op.* events).
	Node radio.NodeID `json:"node"`
	// Op identifies the control operation end to end (0 when n/a); UID is
	// the wire identifier of the attempt (rescues travel under fresh UIDs).
	Op  uint32 `json:"op,omitempty"`
	UID uint32 `json:"uid,omitempty"`
	// Src/Dst/Seq describe the frame (radio/MAC layers) or the relay
	// target (core layer).
	Src radio.NodeID `json:"src,omitempty"`
	Dst radio.NodeID `json:"dst,omitempty"`
	Seq uint32       `json:"seq,omitempty"`
	// Hops is the control packet's accumulated transmission count.
	Hops uint8 `json:"hops,omitempty"`
	// Value is a kind-specific scalar: SINR dB for receptions, attempts
	// left for op.retry, 1/0 for op.result, latency seconds for op.e2e-ack.
	Value float64 `json:"value,omitempty"`
	// Note is a short kind-specific detail (relay case, path code, ...).
	// Emitters use constant or precomputed strings to stay allocation-free.
	Note string `json:"note,omitempty"`
	// Run is the replication index an event belongs to after a seed
	// merge; 0 for single runs.
	Run int `json:"run,omitempty"`
	// Frame is the radio frame for radio-layer events (in-memory
	// consumers only; excluded from JSONL). It is valid only while the
	// event is being emitted: a MAC refills one frame for all its acks,
	// so a sink that keeps the event must copy what it needs from it.
	Frame *radio.Frame `json:"-"`
}

// Sink consumes events. Consume is called synchronously inside the
// simulation loop; implementations must be cheap and must not re-enter
// the simulation.
type Sink interface {
	Consume(Event)
}

type sinkEntry struct {
	sink Sink
	mask uint8
}

// Bus is a per-run event bus. One bus serves one simulation: it is not
// safe for concurrent use, matching the single-threaded engine. The zero
// value and the nil bus are valid, permanently-disabled buses.
type Bus struct {
	now      func() time.Duration
	sinks    []sinkEntry
	mask     uint8
	onEnable [numLayers][]func()
}

// NewBus creates a bus stamping events with the given virtual clock.
func NewBus(now func() time.Duration) *Bus {
	return &Bus{now: now}
}

func layerMask(layers []Layer) uint8 {
	if len(layers) == 0 {
		return 1<<numLayers - 1
	}
	var m uint8
	for _, l := range layers {
		m |= 1 << l
	}
	return m
}

// Subscribe attaches a sink for the given layers (all layers when none
// are named). Sinks receive events in emission order.
func (b *Bus) Subscribe(s Sink, layers ...Layer) {
	if b == nil || s == nil {
		return
	}
	m := layerMask(layers)
	enabled := m &^ b.mask
	b.sinks = append(b.sinks, sinkEntry{sink: s, mask: m})
	b.mask |= m
	for l := Layer(0); l < numLayers; l++ {
		if enabled&(1<<l) == 0 {
			continue
		}
		for _, fn := range b.onEnable[l] {
			fn()
		}
		b.onEnable[l] = nil
	}
}

// OnLayerEnabled registers fn to run once, when the layer gains its first
// subscriber (immediately if it already has one). Emitters use it to
// install per-event taps — like the radio trace hook — only when someone
// actually listens, keeping a fully disabled layer at zero per-event cost
// rather than one rejected callback per event.
func (b *Bus) OnLayerEnabled(l Layer, fn func()) {
	if b == nil || fn == nil {
		return
	}
	if b.mask&(1<<l) != 0 {
		fn()
		return
	}
	b.onEnable[l] = append(b.onEnable[l], fn)
}

// Wants reports whether any sink listens to the layer. Emitters use it to
// guard event construction on hot paths; a nil bus wants nothing.
func (b *Bus) Wants(l Layer) bool {
	return b != nil && b.mask&(1<<l) != 0
}

// Emit stamps the event with the virtual clock and fans it out to the
// layer's subscribers. Emitting to a nil or unsubscribed-layer bus is a
// single branch.
func (b *Bus) Emit(ev Event) {
	if b == nil || b.mask&(1<<ev.Layer) == 0 {
		return
	}
	if b.now != nil {
		ev.At = b.now()
	}
	bit := uint8(1) << ev.Layer
	for _, e := range b.sinks {
		if e.mask&bit != 0 {
			e.sink.Consume(ev)
		}
	}
}

// Collector is a Sink buffering events in memory, in emission order.
type Collector struct {
	evs []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Consume implements Sink.
func (c *Collector) Consume(ev Event) { c.evs = append(c.evs, ev) }

// Events returns the collected events in emission order (shared slice;
// callers must not mutate).
func (c *Collector) Events() []Event { return c.evs }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.evs) }

// OpIdentified is implemented by frame payloads that belong to a control
// operation; the radio tap uses it to associate frame-level events with
// operation spans without importing protocol packages.
type OpIdentified interface {
	// TelemetryIDs returns the end-to-end operation id and the wire UID
	// of the attempt (either may be 0 when unknown).
	TelemetryIDs() (op, uid uint32)
}

// radioKinds maps the exported radio trace kind set onto event kinds.
var radioKinds = map[radio.TraceKind]Kind{
	radio.TraceTxStart:   KindRadioTx,
	radio.TraceRxOK:      KindRadioRxOK,
	radio.TraceRxCorrupt: KindRadioRxCorrupt,
}

// RadioTap adapts the bus to the medium's trace hook: install with
// Medium.SetTraceFn(telemetry.RadioTap(bus)). Frame events gain Op/UID
// when the payload identifies its operation.
func RadioTap(b *Bus) func(radio.TraceEvent) {
	return func(te radio.TraceEvent) {
		if !b.Wants(LayerRadio) {
			return
		}
		k, ok := radioKinds[te.Kind]
		if !ok {
			k = KindUnknown
		}
		ev := Event{
			Layer: LayerRadio,
			Kind:  k,
			Node:  te.Node,
			Value: te.SINRdB,
			Frame: te.Frame,
		}
		if f := te.Frame; f != nil {
			ev.Src, ev.Dst, ev.Seq = f.Src, f.Dst, f.Seq
			if ids, ok := f.Payload.(OpIdentified); ok {
				ev.Op, ev.UID = ids.TelemetryIDs()
			}
		}
		b.Emit(ev)
	}
}
