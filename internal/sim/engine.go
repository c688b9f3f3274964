// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event heap, cancellable timers, and seeded random
// number streams. Every other substrate in this repository (radio, MAC,
// routing, application workloads) is driven by this engine so that whole
// simulated networks are reproducible from a single seed.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrStopped is returned by Run when the engine was stopped explicitly via
// Stop before the run limit was reached.
var ErrStopped = errors.New("sim: engine stopped")

// Event lifecycle states. An event is pending from scheduling until it
// fires or is cancelled; fired and cancelled events return to the
// engine's free list for reuse, which bumps their generation so stale
// EventRef handles can never act on the recycled object.
const (
	eventPending uint8 = iota + 1
	eventFired
	eventCancelled
)

// Event is a pooled scheduled callback. Callers never hold *Event
// directly: Schedule returns an EventRef whose generation pins the
// specific scheduling this handle refers to.
type Event struct {
	at  time.Duration
	seq uint64
	// fn is the zero-argument callback; when nil, argFn(arg) runs
	// instead. The two-field form lets hot paths schedule a pre-bound
	// method plus argument without allocating a fresh closure per event.
	fn    func()
	argFn func(any)
	arg   any
	idx   int // heap index; -1 when not queued
	state uint8
	gen   uint64
	eng   *Engine
}

// EventRef is a cancellable handle to one scheduled event. The zero value
// is an idle handle: Cancel and Pending on it are no-ops. Refs are
// generation-checked, so holding one past its event's firing or
// cancellation is always safe — the event object may already be serving
// a later scheduling, and a stale ref will not touch it.
type EventRef struct {
	e   *Event
	gen uint64
}

// valid reports whether the ref still addresses the scheduling it was
// created for (the event object has not been recycled since).
func (r EventRef) valid() bool { return r.e != nil && r.e.gen == r.gen }

// At reports the virtual time this event is scheduled to fire, or 0 when
// the ref is stale or idle.
func (r EventRef) At() time.Duration {
	if !r.valid() {
		return 0
	}
	return r.e.at
}

// Cancel prevents the event from firing and removes it from the engine's
// heap immediately via its stored index, so cancelled events do not linger
// until popped. Cancelling an already-fired or already-cancelled event is a
// no-op, as is cancelling through a stale or zero ref. Cancel reports
// whether the event was still pending.
func (r EventRef) Cancel() bool {
	if !r.valid() || r.e.state != eventPending || r.e.idx < 0 {
		return false
	}
	e := r.e
	e.eng.queue.remove(e.idx)
	e.eng.release(e, eventCancelled)
	return true
}

// Pending reports whether the event is still queued and not cancelled.
func (r EventRef) Pending() bool {
	return r.valid() && r.e.state == eventPending && r.e.idx >= 0
}

// Engine is a discrete-event scheduler with a virtual clock. The zero value
// is not usable; construct with NewEngine.
//
// Engine is not safe for concurrent use: simulations here are single
// goroutine by design, which keeps them deterministic.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   eventQueue
	stopped bool

	// free is the event pool: fired and cancelled events are recycled
	// here instead of garbage. Pool order never affects behaviour —
	// dispatch order depends only on (at, seq).
	free []*Event

	// processed counts events dispatched since construction.
	processed uint64
}

// NewEngine returns an engine whose clock starts at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule enqueues fn to run after delay (relative to Now). A negative
// delay is treated as zero. Events scheduled for the same instant fire in
// scheduling order.
func (e *Engine) Schedule(delay time.Duration, fn func()) EventRef {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	return e.scheduleAt(e.now+delay, fn, nil, nil)
}

// ScheduleArg enqueues fn(arg) to run after delay. It behaves exactly
// like Schedule but keeps hot paths allocation-free: a pre-bound
// func(any) plus a pointer-typed arg costs nothing per call, where an
// equivalent fresh closure would allocate on every scheduling.
func (e *Engine) ScheduleArg(delay time.Duration, fn func(any), arg any) EventRef {
	if fn == nil {
		panic("sim: ScheduleArg called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	return e.scheduleAt(e.now+delay, nil, fn, arg)
}

// ScheduleAt enqueues fn to run at the absolute virtual time at. Times in
// the past are clamped to Now.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) EventRef {
	if fn == nil {
		panic("sim: ScheduleAt called with nil function")
	}
	if at < e.now {
		at = e.now
	}
	return e.scheduleAt(at, fn, nil, nil)
}

func (e *Engine) scheduleAt(at time.Duration, fn func(), argFn func(any), arg any) EventRef {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{eng: e}
	}
	ev.at, ev.seq = at, e.seq
	ev.fn, ev.argFn, ev.arg = fn, argFn, arg
	ev.state = eventPending
	e.seq++
	e.queue.push(ev)
	return EventRef{e: ev, gen: ev.gen}
}

// release marks an event fired or cancelled and returns it to the pool.
// The generation bump invalidates every outstanding EventRef to this
// scheduling; clearing the callback fields drops closure references so
// the pool retains no object graphs.
func (e *Engine) release(ev *Event, state uint8) {
	ev.state = state
	ev.gen++
	ev.fn, ev.argFn, ev.arg = nil, nil, nil
	ev.idx = -1
	e.free = append(e.free, ev)
}

// Stop makes the current Run return after the in-flight event completes.
// The stop request is persistent until observed: if no Run is in
// progress, the next Run (or RunAll) call returns ErrStopped immediately
// and clears the request, rather than silently dropping it.
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events in timestamp order until the queue is empty or the
// clock would pass until. Events scheduled exactly at until still fire. It
// returns ErrStopped if Stop was called, nil otherwise.
func (e *Engine) Run(until time.Duration) error {
	return e.dispatch(until, true, 0)
}

// RunAll dispatches events until the queue is empty, with a safety cap on
// the number of events to guard against runaway self-scheduling loops.
func (e *Engine) RunAll(maxEvents uint64) error {
	return e.dispatch(0, false, maxEvents)
}

// dispatch is the single event loop behind Run and RunAll. haveHorizon
// limits the virtual clock to until (advancing it there on return);
// maxEvents > 0 bounds the number of dispatched events. Both paths enforce
// clock monotonicity: a popped event timestamped before the clock is a
// scheduler bug and aborts the run. A pending Stop — whether issued
// mid-run or between runs — is observed at the first opportunity,
// cleared, and reported as ErrStopped.
func (e *Engine) dispatch(until time.Duration, haveHorizon bool, maxEvents uint64) error {
	start := e.processed
	for {
		if e.stopped {
			e.stopped = false
			return ErrStopped
		}
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if haveHorizon && next.at > until {
			// Advance the clock to the horizon so repeated Run calls
			// observe monotonic time.
			e.now = until
			return nil
		}
		if maxEvents > 0 && e.processed-start >= maxEvents {
			return fmt.Errorf("sim: exceeded %d events", maxEvents)
		}
		e.queue.remove(0)
		if next.state != eventPending {
			// Defensive: Cancel removes events eagerly, so non-pending
			// events should never surface here.
			continue
		}
		if next.at < e.now {
			return fmt.Errorf("sim: event time %v before clock %v", next.at, e.now)
		}
		e.now = next.at
		e.processed++
		if next.fn != nil {
			next.fn()
		} else {
			next.argFn(next.arg)
		}
		e.release(next, eventFired)
	}
	if haveHorizon && e.now < until {
		e.now = until
	}
	return nil
}

// QueueLen returns the number of queued events. Cancelled events leave the
// queue immediately, so every queued event is live.
func (e *Engine) QueueLen() int { return len(e.queue) }

// eventQueue is a typed 4-ary min-heap of pending events ordered by
// (at, seq). The order is total — seq is unique — so the pop sequence is
// fully determined by the events, whatever the heap's shape. Every
// queued event's idx is its position, which lets Cancel remove it in
// O(log n). Four children per node halve the depth of a binary heap;
// on BenchmarkScheduleAndRun that outweighs the extra sibling compares.
type eventQueue []*Event

// heapArity is the number of children per heap node.
const heapArity = 4

// before reports whether a fires before b.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev to the heap.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// remove takes the event at position i out of the heap and marks it
// unqueued.
func (q *eventQueue) remove(i int) {
	old := *q
	last := len(old) - 1
	ev := old[i]
	old[i] = old[last]
	old[last] = nil
	*q = old[:last]
	ev.idx = -1
	// The last event now fills the hole; it may belong above or below it.
	if i < last && !q.down(i) {
		q.up(i)
	}
}

// up sifts the event at position i toward the root.
func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := q[parent]
		if !before(ev, p) {
			break
		}
		q[i] = p
		p.idx = i
		i = parent
	}
	q[i] = ev
	ev.idx = i
}

// down sifts the event at position i toward the leaves and reports
// whether it moved.
func (q eventQueue) down(i int) bool {
	n := len(q)
	ev := q[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if before(q[c], q[best]) {
				best = c
			}
		}
		if !before(q[best], ev) {
			break
		}
		q[i] = q[best]
		q[i].idx = i
		i = best
	}
	q[i] = ev
	ev.idx = i
	return i > start
}
