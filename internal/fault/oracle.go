package fault

import (
	"fmt"
	"sort"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// OracleConfig carries the protocol bounds the invariants are checked
// against (mirror the core.Config the network runs with).
type OracleConfig struct {
	NumNodes int
	Sink     radio.NodeID
	// RetryRounds and Backtracks mirror core.Config: a relay may send a
	// control packet at most RetryRounds+1 times per forwarding episode
	// and may be reopened by feedback at most Backtracks times.
	RetryRounds int
	Backtracks  int
	// ControlTimeout mirrors core.Config.ControlTimeout; a pending op
	// older than 2× this (plus grace) is a liveness violation.
	ControlTimeout time.Duration
	// RescueEnabled mirrors core.Config.Rescue; detour frames on the air
	// with rescue disabled are a violation.
	RescueEnabled bool
	// MaxHops bounds the accumulated Control.Hops counter per operation.
	// Zero derives NumNodes × (RetryRounds+1) × (Backtracks+2): Hops
	// increments on every forwarding attempt, so the diameter bound is
	// scaled by the per-node retry and reopen budgets.
	MaxHops int
}

func (c *OracleConfig) maxHops() int {
	if c.MaxHops > 0 {
		return c.MaxHops
	}
	return c.NumNodes * (c.RetryRounds + 1) * (c.Backtracks + 2)
}

// maxSendsPerRelay bounds distinct link-layer packets one relay may
// originate for one operation: RetryRounds+1 per episode, across the
// initial episode plus at most Backtracks+1 feedback reopenings.
func (c *OracleConfig) maxSendsPerRelay() int {
	return (c.RetryRounds + 1) * (c.Backtracks + 2)
}

// Violation is one observed invariant breach.
type Violation struct {
	At        time.Duration
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Invariant, v.Detail)
}

// opTrace accumulates what the oracle has seen on the air for one
// control UID.
type opTrace struct {
	firstAt time.Duration
	op      uint32
	detour  bool
	maxHops int
	// sends[src] is the set of link-layer sequence numbers observed for
	// control frames from src (LPL stream copies share one seq, so this
	// counts logical sends, not airtime copies).
	sends map[radio.NodeID]map[uint32]bool
	// feedbacks[src] counts feedback packets from src.
	feedbacks map[radio.NodeID]map[uint32]bool
}

// Oracle subscribes to the telemetry event stream and per-node protocol
// state and checks the paper's recovery invariants: path-code prefix
// consistency, bounded forwarding (no loop beyond the diameter-derived hop
// budget), backtracking within the retransmission bound, Re-Tele only
// after a failed direct attempt (and only when enabled), and
// pending-operation liveness. Attach with
// bus.Subscribe(o, telemetry.LayerRadio) — the same stream the traces and
// figure aggregations read — and call Check after each fault epoch and at
// end of run.
type Oracle struct {
	cfg OracleConfig

	// TeleAt returns node id's TeleAdjusting engine (nil if the node
	// runs another protocol or is dead). Required for state checks.
	TeleAt func(id radio.NodeID) *core.Engine
	// Alive reports node liveness; nil means all nodes count as alive.
	Alive func(id radio.NodeID) bool
	// Now supplies the virtual clock for Check-time violations.
	Now func() time.Duration

	ops        map[uint32]*opTrace
	violations []Violation
}

// NewOracle builds an oracle for a network of the given shape.
func NewOracle(cfg OracleConfig) *Oracle {
	return &Oracle{cfg: cfg, ops: make(map[uint32]*opTrace)}
}

// Violations returns everything recorded so far, in observation order.
func (o *Oracle) Violations() []Violation { return o.violations }

// SendsFor returns the number of distinct logical control sends observed
// from src for operation uid (test introspection).
func (o *Oracle) SendsFor(uid uint32, src radio.NodeID) int {
	ot := o.ops[uid]
	if ot == nil {
		return 0
	}
	return len(ot.sends[src])
}

func (o *Oracle) violate(at time.Duration, inv, format string, args ...any) {
	o.violations = append(o.violations, Violation{
		At:        at,
		Invariant: inv,
		Detail:    fmt.Sprintf(format, args...),
	})
}

var _ telemetry.Sink = (*Oracle)(nil)

// Consume implements telemetry.Sink over the radio layer of the unified
// event stream. Only transmit starts matter: the invariants constrain
// what nodes put on the air.
func (o *Oracle) Consume(ev telemetry.Event) {
	if ev.Kind != telemetry.KindRadioTx || ev.Frame == nil {
		return
	}
	switch p := ev.Frame.Payload.(type) {
	case *core.Control:
		o.observeControl(ev, p)
	case *core.Feedback:
		ot := o.op(p.UID, ev.At)
		if ot.feedbacks[ev.Frame.Src] == nil {
			ot.feedbacks[ev.Frame.Src] = make(map[uint32]bool)
		}
		ot.feedbacks[ev.Frame.Src][ev.Frame.Seq] = true
	}
}

func (o *Oracle) op(uid uint32, at time.Duration) *opTrace {
	ot := o.ops[uid]
	if ot == nil {
		ot = &opTrace{
			firstAt:   at,
			op:        uid,
			sends:     make(map[radio.NodeID]map[uint32]bool),
			feedbacks: make(map[radio.NodeID]map[uint32]bool),
		}
		o.ops[uid] = ot
	}
	return ot
}

func (o *Oracle) observeControl(ev telemetry.Event, c *core.Control) {
	ot := o.op(c.UID, ev.At)
	ot.op = c.Op
	// A batch carrier goes on the air under its first member's UID/Op;
	// every member is a direct attempt in its own right, which a later
	// Re-Tele detour for that member references.
	for i := range c.Batch {
		o.op(c.Batch[i].UID, ev.At)
	}
	if c.Detour {
		if !ot.detour {
			ot.detour = true
			// Re-Tele discipline: a detour operation must reference an
			// earlier, non-detour attempt (same Op, distinct UID) that
			// was actually seen on the air, and rescue must be enabled.
			if !o.cfg.RescueEnabled {
				o.violate(ev.At, "retele-enabled",
					"detour uid=%d on the air with rescue disabled", c.UID)
			}
			orig, ok := o.ops[c.Op]
			if !ok || orig.detour || c.Op == c.UID {
				o.violate(ev.At, "retele-after-failure",
					"detour uid=%d op=%d without a prior direct attempt", c.UID, c.Op)
			}
		}
	}
	if h := int(c.Hops); h > ot.maxHops {
		ot.maxHops = h
		if h > o.cfg.maxHops() {
			o.violate(ev.At, "hop-bound",
				"uid=%d hops=%d exceeds bound %d", c.UID, h, o.cfg.maxHops())
		}
	}
	src := ev.Frame.Src
	if ot.sends[src] == nil {
		ot.sends[src] = make(map[uint32]bool)
	}
	if !ot.sends[src][ev.Frame.Seq] {
		ot.sends[src][ev.Frame.Seq] = true
		if n := len(ot.sends[src]); n > o.cfg.maxSendsPerRelay() {
			o.violate(ev.At, "retx-bound",
				"uid=%d relay=%d made %d sends, bound %d",
				c.UID, src, n, o.cfg.maxSendsPerRelay())
		}
	}
}

// Check runs the state-based invariants (prefix consistency, pending-op
// liveness) and returns all violations recorded so far. Call it after
// each fault epoch and once at the end of a run.
func (o *Oracle) Check() []Violation {
	now := time.Duration(0)
	if o.Now != nil {
		now = o.Now()
	}
	if o.TeleAt != nil {
		o.checkCodes(now)
		o.checkPending(now)
	}
	return o.violations
}

func (o *Oracle) checkCodes(now time.Duration) {
	for i := 0; i < o.cfg.NumNodes; i++ {
		id := radio.NodeID(i)
		if o.Alive != nil && !o.Alive(id) {
			continue
		}
		te := o.TeleAt(id)
		if te == nil {
			continue
		}
		code, haveCode := te.Code()
		if id == o.cfg.Sink {
			if haveCode && !code.Equal(core.RootCode()) {
				o.violate(now, "prefix-consistency",
					"sink holds non-root code %s", code)
			}
			continue
		}
		if !haveCode {
			continue
		}
		pcode, haveParent := te.ParentCode()
		if !haveParent {
			o.violate(now, "prefix-consistency",
				"node %d holds code %s with no parent code", id, code)
			continue
		}
		if !pcode.IsPrefixOf(code) || pcode.Len() >= code.Len() {
			o.violate(now, "prefix-consistency",
				"node %d code %s does not strictly extend parent code %s", id, code, pcode)
		}
	}
}

func (o *Oracle) checkPending(now time.Duration) {
	sink := o.TeleAt(o.cfg.Sink)
	if sink == nil || o.cfg.ControlTimeout <= 0 {
		return
	}
	// One rescue attempt restarts the timeout once, so a pending op may
	// legitimately live for ~2 timeouts; beyond that (plus scheduling
	// grace) the "ack returns or failure is reported" promise is broken.
	limit := 2*o.cfg.ControlTimeout + time.Second
	for _, p := range sink.PendingOps() {
		if age := now - p.SentAt; age > limit {
			o.violate(now, "pending-liveness",
				"op uid=%d dst=%d pending for %v (limit %v)", p.UID, p.Dst, age, limit)
		}
	}
}

// Summary renders the violations as a sorted, deterministic multi-line
// string (empty when clean) — convenient for test failure messages.
func (o *Oracle) Summary() string {
	if len(o.violations) == 0 {
		return ""
	}
	lines := make([]string, len(o.violations))
	for i, v := range o.violations {
		lines[i] = v.String()
	}
	sort.Strings(lines)
	out := lines[0]
	for _, l := range lines[1:] {
		out += "\n" + l
	}
	return out
}
