// Package sink implements the sink-side command plane: a scheduler that
// sits above a control protocol's dispatch entry point and manages a
// queue of concurrent control operations. The paper evaluates
// TeleAdjusting one issue-and-wait packet at a time; a sink serving heavy
// actuation traffic instead needs admission control (a bounded in-flight
// window), per-subtree serialization so operations descending the same
// branch of the code tree do not self-interfere, and per-operation
// retry/deadline budgets layered over the protocol's own recovery.
//
// Path codes make the subtree structure cheap to exploit: operations
// whose destination codes share a prefix traverse the same subtree, so
// the scheduler groups queued operations by a truncated-prefix key (see
// GroupKey) and caps how many run per group at once. Everything runs
// inside the single-threaded simulation loop — submissions, dispatches,
// and completions are engine events — so a run's schedule is a pure
// function of its seed.
package sink

import (
	"errors"
	"fmt"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// Scheduler errors, reported through Outcome.Err or returned by Submit.
var (
	// ErrQueueFull reports that Submit refused the operation because the
	// backlog reached Config.MaxQueue.
	ErrQueueFull = errors.New("sink: command queue full")
	// ErrBudget reports that the per-op budget expired before the
	// operation could be dispatched (or re-dispatched).
	ErrBudget = errors.New("sink: per-op budget exhausted")
)

// Dispatcher is the protocol surface the scheduler drives: the sink-side
// dispatch entry point of any protocol.ControlProtocol.
type Dispatcher interface {
	SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error)
}

// RetryAware is an optional Dispatcher capability for dispatchers that
// treat re-dispatches differently from first attempts. When the
// dispatcher implements it, every attempt after the first goes through
// SendControlRetry instead of SendControl (the command service's batcher
// uses this to send retries as full-rescue singles rather than
// re-buffering an already-failed operation into a batch carrier).
type RetryAware interface {
	SendControlRetry(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error)
}

// Config tunes a Scheduler.
type Config struct {
	// Window is the admission window: the maximum number of operations in
	// flight at once (minimum 1).
	Window int
	// PerGroup caps concurrent in-flight operations per subtree group
	// (minimum 1; 1 serializes each subtree).
	PerGroup int
	// GroupBits is the prefix length of the subtree grouping key; <= 0
	// groups by the full destination code (see GroupKey).
	GroupBits int
	// MaxQueue bounds the backlog; Submit fails with ErrQueueFull beyond
	// it (0 = unbounded).
	MaxQueue int
	// Retries is the number of times a failed operation is re-queued and
	// re-dispatched before the failure is reported (each dispatch already
	// carries the protocol's own retry/backtrack/rescue recovery).
	Retries int
	// OpBudget, when positive, is the per-op deadline measured from
	// enqueue: an operation still queued at its deadline is dropped with
	// ErrBudget, and a failed attempt past it is not re-queued.
	OpBudget time.Duration
	// TicketBase offsets the scheduler's ticket numbering (first ticket is
	// TicketBase+1). Studies running several schedulers give each a
	// disjoint range so their telemetry spans never collide.
	TicketBase uint32
}

// DefaultConfig returns the reference command-plane tuning: an 8-op
// window, serialized subtrees keyed on 6-bit prefixes, one re-dispatch.
func DefaultConfig() Config {
	return Config{
		Window:    8,
		PerGroup:  1,
		GroupBits: 6,
		Retries:   1,
	}
}

// withDefaults clamps the config to usable minimums.
func (c Config) withDefaults() Config {
	if c.Window < 1 {
		c.Window = 1
	}
	if c.PerGroup < 1 {
		c.PerGroup = 1
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	return c
}

// Outcome reports one scheduled operation's final state through the
// Submit callback.
type Outcome struct {
	Ticket uint32
	Dst    radio.NodeID
	OK     bool
	// Err classifies command-plane failures (ErrBudget, or the dispatch
	// error for unroutable destinations); nil for operations the protocol
	// resolved, even unsuccessfully.
	Err error
	// Attempts counts dispatches (0 when the op expired while queued).
	Attempts int
	// Result is the protocol outcome of the last dispatch.
	Result protocol.Result

	EnqueuedAt time.Duration
	AdmittedAt time.Duration
	Admitted   bool
	DoneAt     time.Duration
}

// QueueWait returns the enqueue → first-admission delay.
func (o Outcome) QueueWait() time.Duration {
	if !o.Admitted {
		return 0
	}
	return o.AdmittedAt - o.EnqueuedAt
}

// Total returns the enqueue → resolution delay.
func (o Outcome) Total() time.Duration { return o.DoneAt - o.EnqueuedAt }

// Stats are the scheduler's lifetime counters.
type Stats struct {
	Submitted   uint64
	Admitted    uint64
	Retried     uint64
	CompletedOK uint64
	Failed      uint64 // protocol-resolved failures (after retry budget)
	Unroutable  uint64 // dispatch refused: no route/code
	Rejected    uint64 // refused at submit (queue full)
	Expired     uint64 // dropped while queued (per-op budget)
}

// opState is one queued-or-in-flight operation.
type opState struct {
	ticket   uint32
	dst      radio.NodeID
	app      any
	group    string
	done     func(Outcome)
	retries  int
	attempts int
	deadline time.Duration // 0 = none
	expire   sim.EventRef

	enqueuedAt time.Duration
	admittedAt time.Duration
	admitted   bool
	inflight   bool
	finished   bool
	lastResult protocol.Result
}

// Scheduler is the sink command plane. It is engine-driven and not safe
// for concurrent use, matching the simulation's single-threaded design.
type Scheduler struct {
	eng   *sim.Engine
	d     Dispatcher
	retry RetryAware // non-nil iff d implements RetryAware
	cfg   Config
	coder func(radio.NodeID) (core.PathCode, bool)

	queue    []*opState
	groups   map[string]int
	inflight int
	tickets  uint32
	pumping  bool

	stats Stats
	bus   *telemetry.Bus
	node  radio.NodeID
}

// New creates a scheduler dispatching through d on the given engine.
func New(eng *sim.Engine, d Dispatcher, cfg Config) *Scheduler {
	if eng == nil || d == nil {
		panic("sink: New requires an engine and a dispatcher")
	}
	s := &Scheduler{
		eng:     eng,
		d:       d,
		tickets: cfg.TicketBase,
		cfg:     cfg.withDefaults(),
		groups:  make(map[string]int),
	}
	s.retry, _ = d.(RetryAware)
	return s
}

// SetCoder installs the destination → path code resolver used for the
// subtree grouping key. Without one (or for destinations without codes)
// each destination forms its own group, which still serializes repeated
// operations to one node.
func (s *Scheduler) SetCoder(fn func(radio.NodeID) (core.PathCode, bool)) { s.coder = fn }

// SetTelemetry attaches the event bus for command-plane span events,
// attributed to the given (sink) node; a nil bus disables them. reg is
// ignored: the scheduler's counters are read through Stats. The parameter
// stays because the benchmark module calls this signature.
func (s *Scheduler) SetTelemetry(reg *telemetry.Registry, bus *telemetry.Bus, node radio.NodeID) {
	s.bus = bus
	s.node = node
}

// Stats returns a snapshot of the lifetime counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// QueueLen returns the current backlog (admitted ops excluded).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// InFlight returns the number of dispatched, unresolved operations.
func (s *Scheduler) InFlight() int { return s.inflight }

// Quiesced reports that no operation is queued or in flight.
func (s *Scheduler) Quiesced() bool { return len(s.queue) == 0 && s.inflight == 0 }

// Submit enqueues a control operation for dst carrying app and returns
// its ticket. done (optional) fires exactly once with the outcome —
// unless Submit itself fails, which reports the only error path that has
// no outcome (ErrQueueFull). Admission may happen within this call.
func (s *Scheduler) Submit(dst radio.NodeID, app any, done func(Outcome)) (uint32, error) {
	s.tickets++
	t := s.tickets
	now := s.eng.Now()
	if s.cfg.MaxQueue > 0 && len(s.queue) >= s.cfg.MaxQueue {
		s.stats.Rejected++
		s.emit(telemetry.Event{Kind: telemetry.KindSinkReject, Seq: t, Dst: dst})
		return t, ErrQueueFull
	}
	op := &opState{
		ticket:     t,
		dst:        dst,
		app:        app,
		group:      s.groupOf(dst),
		done:       done,
		retries:    s.cfg.Retries,
		enqueuedAt: now,
	}
	if s.cfg.OpBudget > 0 {
		op.deadline = now + s.cfg.OpBudget
		op.expire = s.eng.Schedule(s.cfg.OpBudget, func() { s.expireQueued(op) })
	}
	s.stats.Submitted++
	s.emit(telemetry.Event{Kind: telemetry.KindSinkEnqueue, Seq: t, Dst: dst, Note: op.group})
	s.queue = append(s.queue, op)
	s.pump()
	return t, nil
}

// groupOf resolves the subtree grouping key for a destination.
func (s *Scheduler) groupOf(dst radio.NodeID) string {
	if s.coder != nil {
		if code, ok := s.coder(dst); ok && !code.IsEmpty() {
			return GroupKey(code, s.cfg.GroupBits)
		}
	}
	return fmt.Sprintf("n%d", dst)
}

// pump admits queued operations while the window and their subtree
// groups have room, scanning the backlog in FIFO order (a blocked group
// does not head-of-line-block the ops behind it). Re-entrant calls — a
// completion callback submitting the next closed-loop op — fold into the
// outermost pump, which re-checks the queue until nothing is admissible.
func (s *Scheduler) pump() {
	if s.pumping {
		return
	}
	s.pumping = true
	defer func() { s.pumping = false }()
	for s.inflight < s.cfg.Window {
		i := -1
		for j, op := range s.queue {
			if s.groups[op.group] < s.cfg.PerGroup {
				i = j
				break
			}
		}
		if i < 0 {
			return
		}
		op := s.queue[i]
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.dispatch(op)
	}
}

// dispatch admits one operation: it claims a window and group slot and
// hands the op to the protocol. Unroutable dispatches resolve
// immediately; the protocol resolves everything else through resolve.
func (s *Scheduler) dispatch(op *opState) {
	now := s.eng.Now()
	if !op.admitted {
		op.admitted = true
		op.admittedAt = now
		s.stats.Admitted++
	}
	op.attempts++
	op.inflight = true
	s.inflight++
	s.groups[op.group]++
	cb := func(r protocol.Result) { s.resolve(op, r) }
	var uid uint32
	var err error
	if s.retry != nil && op.attempts > 1 {
		uid, err = s.retry.SendControlRetry(op.dst, op.app, cb)
	} else {
		uid, err = s.d.SendControl(op.dst, op.app, cb)
	}
	s.emit(telemetry.Event{Kind: telemetry.KindSinkAdmit, Seq: op.ticket, Op: uid,
		Dst: op.dst, Value: (now - op.enqueuedAt).Seconds()})
	if err != nil {
		// No route or code for the destination: the command plane cannot
		// heal that by waiting, so it is terminal (and distinct from a
		// protocol-resolved failure in the stats).
		s.release(op)
		s.stats.Unroutable++
		s.finish(op, err)
	}
}

// resolve consumes the protocol's end-to-end outcome of one dispatch.
func (s *Scheduler) resolve(op *opState, r protocol.Result) {
	if op.finished || !op.inflight {
		return
	}
	op.lastResult = r
	s.release(op)
	now := s.eng.Now()
	switch {
	case r.OK:
		s.finish(op, nil)
	case op.retries > 0 && (op.deadline == 0 || now < op.deadline):
		op.retries--
		s.stats.Retried++
		s.emit(telemetry.Event{Kind: telemetry.KindSinkRetry, Seq: op.ticket,
			Dst: op.dst, Value: float64(op.attempts)})
		// Head of the queue: the subtree's serialized order must hold, so
		// a retried op goes back in front of everything queued behind it.
		s.queue = append([]*opState{op}, s.queue...)
	default:
		if op.deadline > 0 && now >= op.deadline && op.retries > 0 {
			s.stats.Expired++
			s.finish(op, ErrBudget)
			break
		}
		s.finish(op, nil)
	}
	s.pump()
}

// release returns the op's window and group slots.
func (s *Scheduler) release(op *opState) {
	op.inflight = false
	s.inflight--
	if n := s.groups[op.group]; n <= 1 {
		delete(s.groups, op.group)
	} else {
		s.groups[op.group] = n - 1
	}
}

// expireQueued drops an operation whose budget ran out while it was
// still (or again) waiting in the queue. In-flight ops are left to the
// protocol, which always resolves within its own control timeout; their
// deadline is enforced at resolve time instead.
func (s *Scheduler) expireQueued(op *opState) {
	if op.finished || op.inflight {
		return
	}
	for i, q := range s.queue {
		if q == op {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.stats.Expired++
	s.emit(telemetry.Event{Kind: telemetry.KindSinkExpire, Seq: op.ticket, Dst: op.dst})
	s.finish(op, ErrBudget)
}

// finish resolves the op exactly once: final bookkeeping, the completion
// event, and the caller's callback.
func (s *Scheduler) finish(op *opState, opErr error) {
	if op.finished {
		return
	}
	op.finished = true
	op.expire.Cancel()
	op.expire = sim.EventRef{}
	now := s.eng.Now()
	ok := opErr == nil && op.lastResult.OK
	if ok {
		s.stats.CompletedOK++
	} else if opErr == nil {
		s.stats.Failed++
	}
	if opErr != ErrBudget {
		v := 0.0
		if ok {
			v = 1
		}
		s.emit(telemetry.Event{Kind: telemetry.KindSinkComplete, Seq: op.ticket,
			Dst: op.dst, Value: v, Hops: op.lastResult.E2EHops})
	}
	if op.done != nil {
		op.done(Outcome{
			Ticket:     op.ticket,
			Dst:        op.dst,
			OK:         ok,
			Err:        opErr,
			Attempts:   op.attempts,
			Result:     op.lastResult,
			EnqueuedAt: op.enqueuedAt,
			AdmittedAt: op.admittedAt,
			Admitted:   op.admitted,
			DoneAt:     now,
		})
	}
}

// emit publishes a sink-layer event attributed to the scheduler's node.
func (s *Scheduler) emit(ev telemetry.Event) {
	if !s.bus.Wants(telemetry.LayerSink) {
		return
	}
	ev.Layer = telemetry.LayerSink
	ev.Node = s.node
	s.bus.Emit(ev)
}
