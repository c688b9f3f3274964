package core

import (
	"math/rand/v2"
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// Config holds TeleAdjusting parameters.
type Config struct {
	// Codec selects the tree-coding scheme (nil means the paper's
	// Algorithm 1; see CodecByName for the registry).
	Codec Codec
	// Reserve is the Algorithm 1 bit-space reserve policy.
	Reserve ReservePolicy
	// AllocDelay is how long after the last new-child discovery the
	// initial allocation fires (paper: 10 rounds of routing beacons =
	// 10 × wake-up interval).
	AllocDelay time.Duration
	// RetryRounds is how many additional full LPL rounds a relay tries
	// (with re-chosen expected relays) before backtracking.
	RetryRounds int
	// Backtracks bounds backtracking steps per packet per node.
	Backtracks int
	// Opportunistic enables relaying by nodes other than the expected
	// relay (disable for the strict-path ablation).
	Opportunistic bool
	// Rescue enables the destination-unreachable countermeasure
	// (Section III-C4, the paper's "Re-Tele" variant).
	Rescue bool
	// FeedbackIntercept enables the Figure 5(a) refinement: an on-path
	// node overhearing a feedback packet resumes forwarding itself.
	FeedbackIntercept bool
	// ControlTimeout fails a pending control operation at the sink.
	ControlTimeout time.Duration
	// ReportInterval paces periodic code reports to the controller.
	ReportInterval time.Duration
	// NeighborCodeTTL ages out neighbor code entries.
	NeighborCodeTTL time.Duration
	// OldCodeTTL is how long a superseded code stays valid for matching
	// ("the old code ... will be remained for a period of time").
	OldCodeTTL time.Duration
	// RequestMinGap rate-limits position request frames.
	RequestMinGap time.Duration
}

// DefaultConfig returns paper-faithful defaults for a 512 ms wake interval.
func DefaultConfig() Config {
	return Config{
		Reserve:           DefaultReserve,
		AllocDelay:        10 * 512 * time.Millisecond,
		RetryRounds:       2,
		Backtracks:        3,
		Opportunistic:     true,
		Rescue:            true,
		FeedbackIntercept: true,
		ControlTimeout:    60 * time.Second,
		ReportInterval:    2 * time.Minute,
		NeighborCodeTTL:   15 * time.Minute,
		OldCodeTTL:        5 * time.Minute,
		RequestMinGap:     2 * time.Second,
	}
}

// Stats aggregates per-node TeleAdjusting statistics.
type Stats struct {
	// Coding.
	CodeChanges     uint64
	PositionReqs    uint64
	AllocationAcks  uint64
	Confirms        uint64
	SpaceExtensions uint64
	// Relabels counts label reassignments by variable-length codecs (the
	// non-positional counterpart of SpaceExtensions: a label-space change
	// that must be re-announced to children).
	Relabels uint64
	// HeaderBytes accumulates destination path-code bytes put on the air
	// by control sends — the per-codec header-cost metric of the
	// coding-schemes study.
	HeaderBytes uint64
	// Forwarding.
	ControlSends    uint64 // logical control transmissions (Table III metric)
	ControlRelayed  uint64
	ControlDeliv    uint64 // packets consumed as destination
	ControlDupDeliv uint64
	FeedbackSends   uint64
	Backtracks      uint64
	Rescues         uint64
	SendFailures    uint64
}

// ATHXSample is one Fig-8 scatter point: a control packet received at this
// node after travelling Hops link transmissions.
type ATHXSample = protocol.ATHXSample

type neighborCode struct {
	code      PathCode
	depth     uint8
	spaceBits uint8
	oldCode   PathCode
	oldUntil  time.Duration
	heardAt   time.Duration
}

type ctrlStatus uint8

const (
	ctrlForwarding ctrlStatus = iota + 1
	ctrlDone
	ctrlFailed
)

type ctrlState struct {
	ctrl       *Control
	frame      *radio.Frame // the in-flight MAC frame for implicit acks
	prev       radio.NodeID // upward relay that handed us the packet
	havePrev   bool
	attempts   int
	backtracks int
	excluded   map[radio.NodeID]bool
	status     ctrlStatus
	at         time.Duration
}

// Engine is one node's TeleAdjusting instance. It registers itself as a
// protocol on the node and hooks into the node's CTP instance.
type Engine struct {
	node *node.Node
	eng  *sim.Engine
	cfg  Config
	rng  *rand.Rand
	ctp  *ctp.CTP

	isSink bool

	// Coding state.
	myCode       PathCode
	haveCode     bool
	depth        uint8
	myOldCode    PathCode
	oldCodeUntil time.Duration
	position     uint16
	havePosition bool
	// label is the explicit bit label adopted from the parent
	// (non-positional codecs; positional codecs derive the label from
	// position and parentSpace).
	label       PathCode
	haveLabel   bool
	parentCode  PathCode
	parentSpace uint8
	parentDepth uint8
	haveParent  bool
	codeAt      time.Duration // when the code was first obtained
	// eligibleAt is when code construction became possible at this node:
	// the first moment its (current) parent was known to hold a path code
	// (the paper's Fig 6c convergence clock starts here).
	eligibleAt     time.Duration
	haveEligibleAt bool

	children      *ChildTable
	lastChildNews time.Duration
	allocTimer    *sim.Timer
	lastRequest   time.Duration
	// codecPositional caches Codec.Positional(): true for the paper codec,
	// whose hot paths must stay exactly as before the codec seam.
	codecPositional bool

	neighborCodes map[radio.NodeID]*neighborCode
	unreachable   map[radio.NodeID]bool

	// Forwarding state.
	ctrl map[uint32]*ctrlState

	// Scoped-dissemination state.
	scopeSeen     map[uint32]time.Duration
	pendingScopes map[uint32]*pendingScope

	// Batch-carrier split state: carrier UIDs already split at this node.
	// Kept separate from ctrl because the first member's onward forwarding
	// reuses the carrier UID and needs its own ctrlState here.
	batchSeen map[uint32]time.Duration

	// Sink-side controller state.
	registry  map[radio.NodeID]CodeInfo
	pending   map[uint32]*pendingControl
	uidSeq    uint32
	oracle    Oracle
	appDelive func(origin radio.NodeID, app any)

	reportTk    *sim.Ticker
	lastReport  time.Duration
	reportDirty bool
	deliverFn   func(uid uint32, hops uint8)

	athx  []ATHXSample
	stats Stats

	// Telemetry (optional; a nil bus is valid and near-free).
	bus *telemetry.Bus
}

// CodeInfo is a controller-side registry entry.
type CodeInfo struct {
	Code  PathCode
	Depth uint8
	At    time.Duration
}

// Oracle supplies the controller's global topology knowledge used by the
// destination-unreachable countermeasure (the paper assumes "the local
// topology information of each node is necessary and likely known" at the
// controller). Implementations are backed by the simulation medium.
type Oracle interface {
	NeighborsOf(id radio.NodeID) []radio.NodeID
	// LinkQuality returns the expected delivery ratio of the directed
	// link a→b in [0,1].
	LinkQuality(a, b radio.NodeID) float64
}

type pendingControl struct {
	op       uint32
	dst      radio.NodeID
	app      any
	sentAt   time.Duration
	cb       func(Result)
	timeout  sim.EventRef
	detoured bool
	rescued  bool
	noRescue bool
}

// Result reports the outcome of a control operation at the sink.
type Result = protocol.Result

var _ node.Protocol = (*Engine)(nil)
var _ protocol.ControlProtocol = (*Engine)(nil)

// Name identifies the protocol family for uniform stacks.
func (e *Engine) Name() string { return "teleadjust" }

// New creates a TeleAdjusting engine bound to a node and its CTP instance,
// and registers it with the node runtime. The sink seeds itself with the
// root code.
func New(n *node.Node, c *ctp.CTP, cfg Config, rng *rand.Rand) *Engine {
	if cfg.Reserve == nil {
		cfg.Reserve = DefaultReserve
	}
	if cfg.Codec == nil {
		cfg.Codec = PaperCodec()
	}
	e := &Engine{
		node:            n,
		eng:             n.Engine(),
		cfg:             cfg,
		rng:             rng,
		ctp:             c,
		isSink:          c.IsSink(),
		children:        NewChildTableWithCodec(cfg.Codec, cfg.Reserve),
		codecPositional: cfg.Codec.Positional(),
		neighborCodes:   make(map[radio.NodeID]*neighborCode),
		unreachable:     make(map[radio.NodeID]bool),
		ctrl:            make(map[uint32]*ctrlState),
		batchSeen:       make(map[uint32]time.Duration),
	}
	if e.isSink {
		e.myCode = RootCode()
		e.haveCode = true
		e.depth = 0
		e.registry = make(map[radio.NodeID]CodeInfo)
		e.pending = make(map[uint32]*pendingControl)
		c.SetDeliverFunc(e.handleCollect)
	}
	e.allocTimer = sim.NewTimer(e.eng, e.maybeAllocate)
	c.SetBeaconExt(e.buildExt)
	c.OnBeaconReceived(e.onBeacon)
	c.OnParentChange(e.onParentChange)
	n.Register(e)
	return e
}

// Start begins periodic code reporting (non-sink nodes).
func (e *Engine) Start() {
	if e.isSink || e.cfg.ReportInterval <= 0 {
		return
	}
	e.reportTk = sim.NewTicker(e.eng, e.cfg.ReportInterval, e.sendCodeReport)
	e.reportTk.StartWithOffset(time.Duration(e.rng.Int64N(int64(e.cfg.ReportInterval))))
}

// Stop halts timers.
func (e *Engine) Stop() {
	e.allocTimer.Stop()
	if e.reportTk != nil {
		e.reportTk.Stop()
	}
}

// --- Introspection ---

// Code returns the node's current path code (ok=false before assignment).
func (e *Engine) Code() (PathCode, bool) { return e.myCode, e.haveCode }

// ParentCode returns the coding parent's path code as last adopted by this
// node (the prefix its own code extends). Recovery-state introspection for
// invariant checkers: a node's code must strictly extend its parent code.
func (e *Engine) ParentCode() (PathCode, bool) { return e.parentCode, e.haveParent }

// Depth returns the node's depth in the code tree (the reverse-path hop
// count of Fig. 6d).
func (e *Engine) Depth() uint8 { return e.depth }

// CodeAssignedAt returns when the node first obtained a code (0,false
// before that); used by the convergence-time experiments.
func (e *Engine) CodeAssignedAt() (time.Duration, bool) {
	if !e.haveCode || e.isSink {
		return 0, e.isSink
	}
	return e.codeAt, true
}

// EligibleAt returns when code construction became possible (the node had
// a parent that published a path code). The Fig 6c convergence time is
// CodeAssignedAt − EligibleAt.
func (e *Engine) EligibleAt() (time.Duration, bool) {
	return e.eligibleAt, e.haveEligibleAt
}

// Children returns a snapshot of the child table entries.
func (e *Engine) Children() []ChildEntry { return e.children.Entries() }

// SpaceBits returns the node's child bit-space width (0 = unallocated).
func (e *Engine) SpaceBits() int { return e.children.SpaceBits() }

// Stats returns a copy of the statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ControlTx returns the node's logical control-plane transmissions (the
// Table III metric): control forwards plus feedback sends.
func (e *Engine) ControlTx() uint64 {
	return e.stats.ControlSends + e.stats.FeedbackSends
}

// Detail exports the diagnostic counters the comparison studies report.
func (e *Engine) Detail() map[string]uint64 {
	return map[string]uint64{
		"backtracks":     e.stats.Backtracks,
		"rescues":        e.stats.Rescues,
		"dup-deliveries": e.stats.ControlDupDeliv,
		"feedbacks":      e.stats.FeedbackSends,
	}
}

// ATHX returns the Fig-8 samples recorded at this node.
func (e *Engine) ATHX() []ATHXSample {
	out := make([]ATHXSample, len(e.athx))
	copy(out, e.athx)
	return out
}

// SetOracle installs the controller's topology oracle (sink only).
func (e *Engine) SetOracle(o Oracle) { e.oracle = o }

// SetTelemetry attaches the event bus for operation span emissions (nil
// disables them). The engine's counters are read through Stats.
func (e *Engine) SetTelemetry(bus *telemetry.Bus) { e.bus = bus }

// emitOp publishes a core-layer event attributed to this node. The bus
// rejects it on one mask test when nobody listens; hot paths additionally
// guard event construction with bus.Wants.
func (e *Engine) emitOp(ev telemetry.Event) {
	ev.Layer = telemetry.LayerCore
	ev.Node = e.node.ID()
	e.bus.Emit(ev)
}

// SetAppDeliver installs the sink-side handler for CTP application payloads
// that are not TeleAdjusting internals (the engine owns the sink's CTP
// delivery hook).
func (e *Engine) SetAppDeliver(fn func(origin radio.NodeID, app any)) { e.appDelive = fn }

// SetDeliveredFn installs a hook fired when this node consumes a control
// packet addressed to it (used by the harness for one-way latency).
func (e *Engine) SetDeliveredFn(fn func(uid uint32, hops uint8)) { e.deliverFn = fn }

// Registry returns the controller's code registry (sink only).
func (e *Engine) Registry() map[radio.NodeID]CodeInfo {
	out := make(map[radio.NodeID]CodeInfo, len(e.registry))
	for k, v := range e.registry {
		out[k] = v
	}
	return out
}

// --- node.Protocol ---

// Owns implements node.Protocol.
func (e *Engine) Owns(payload any) bool {
	switch payload.(type) {
	case *Control, *Feedback, *PositionRequest, *AllocationAck, *ConfirmFrame, *AckRelay, *ScopedControl:
		return true
	}
	return false
}

// Classify implements node.Protocol.
func (e *Engine) Classify(f *radio.Frame) mac.Classification {
	switch p := f.Payload.(type) {
	case *Control:
		return e.classifyControl(f, p)
	case *ScopedControl:
		return e.classifyScope(p)
	case *Feedback:
		return e.classifyFeedback(f, p)
	case *PositionRequest, *AllocationAck, *ConfirmFrame, *AckRelay:
		if f.Dst == e.node.ID() {
			return mac.Classification{Decision: mac.AckAndDeliver}
		}
	}
	return mac.Classification{Decision: mac.Ignore}
}

// Deliver implements node.Protocol.
func (e *Engine) Deliver(f *radio.Frame) {
	switch p := f.Payload.(type) {
	case *Control:
		e.deliverControl(f, p)
	case *ScopedControl:
		e.deliverScope(p)
	case *Feedback:
		e.deliverFeedback(f, p)
	case *PositionRequest:
		e.deliverPositionRequest(f.Src)
	case *AllocationAck:
		e.deliverAllocationAck(f.Src, p)
	case *ConfirmFrame:
		e.children.SetConfirmed(f.Src, p.Position)
	case *AckRelay:
		// Forward the destination's e2e ack upward on our own tree.
		_ = e.ctp.SendToSink(&p.Ack)
	}
}

// OnSendDone implements node.Protocol.
func (e *Engine) OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool) {
	switch p := f.Payload.(type) {
	case *Control:
		e.controlSendDone(f, p, acker, ok)
	case *Feedback:
		if !ok {
			// Could not return the packet upstream; the operation will be
			// recovered by the sink's timeout.
			e.stats.SendFailures++
		}
	case *PositionRequest, *ConfirmFrame, *AllocationAck:
		// Best effort — periodic beacons repair losses — but the outcome
		// still teaches the link estimator about the (possibly
		// asymmetric) link.
		e.ctp.ReportLinkOutcome(f.Dst, ok)
	}
}
