package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// checkHeap fails unless every queued event records its own position and
// no event fires before its parent. While a callback runs before its
// first scheduling, the root is the firing event and records -1.
func checkHeap(t *testing.T, eng *Engine) {
	t.Helper()
	for i, ev := range eng.queue {
		want := i
		if i == 0 && eng.firing {
			want = -1
		}
		if ev.idx != want {
			t.Fatalf("q[%d].idx = %d, want %d", i, ev.idx, want)
		}
		if i > 0 && before(ev, eng.queue[(i-1)/heapArity]) {
			t.Fatalf("q[%d] (at=%v seq=%d) fires before its parent", i, ev.at, ev.seq)
		}
	}
}

// refEvent is one live scheduling in the sorted reference: its key, with
// seq counted the way the engine counts it, and the handle it answers to
// (a plain event's ref, or the index of the timer that armed it).
type refEvent struct {
	at    time.Duration
	seq   uint64
	ev    EventRef
	timer int // -1 for a plain event
}

func (a *refEvent) before(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapRef drives an engine and a reference list of its live events side
// by side. Every callback the engine runs must be the reference's least
// key, at its time; callbacks then act on the engine themselves.
type heapRef struct {
	t          *testing.T
	eng        *Engine
	rng        *rand.Rand
	seed       uint64
	seq        uint64 // the seq the engine gives its next key
	live       []*refEvent
	timers     []*Timer
	armed      []*refEvent // per timer; nil when idle
	fired      int
	inCallback bool           // a callback is acting
	stop       bool           // a callback called Stop during the current run
	seen       map[string]int // steps taken by kind, so each can be required
}

const refTimers = 4

func newHeapRef(t *testing.T, seed uint64, seen map[string]int) *heapRef {
	m := &heapRef{t: t, eng: NewEngine(), rng: rand.New(rand.NewPCG(seed, 7)), seed: seed, seen: seen}
	m.armed = make([]*refEvent, refTimers)
	for k := 0; k < refTimers; k++ {
		m.timers = append(m.timers, NewTimer(m.eng, func() { m.fire(m.armed[k]) }))
	}
	return m
}

// delay draws a coarse delay, so equal instants are common.
func (m *heapRef) delay() time.Duration {
	return time.Duration(m.rng.IntN(20)) * time.Millisecond
}

// schedule adds a plain event after d and returns its reference entry.
func (m *heapRef) schedule(d time.Duration) *refEvent {
	r := &refEvent{at: m.eng.Now() + d, seq: m.seq, timer: -1}
	m.seq++
	r.ev = m.eng.Schedule(d, func() { m.fire(r) })
	m.live = append(m.live, r)
	return r
}

// restart (re)arms timer k after d. A pending timer keeps its reference
// entry and takes the key a cancel plus a fresh scheduling would give it.
func (m *heapRef) restart(k int, d time.Duration) {
	m.timers[k].Start(d)
	r := m.armed[k]
	if r == nil {
		r = &refEvent{timer: k}
		m.armed[k] = r
		m.live = append(m.live, r)
	}
	r.at, r.seq = m.eng.Now()+max(d, 0), m.seq
	m.seq++
}

// restartRelative re-arms timer k to an earlier time, a later time or
// the same instant it is armed for (to a random delay when idle).
func (m *heapRef) restartRelative(k int) {
	r := m.armed[k]
	if r == nil {
		m.restart(k, m.delay())
		return
	}
	left := r.at - m.eng.Now()
	step := time.Duration(1+m.rng.IntN(5)) * time.Millisecond
	where := m.where()
	switch m.rng.IntN(3) {
	case 0:
		m.seen["restart earlier "+where]++
		m.restart(k, left-step) // may fall below zero: Start clamps
	case 1:
		m.seen["restart later "+where]++
		m.restart(k, left+step)
	default:
		m.seen["restart same instant "+where]++
		m.restart(k, left)
	}
}

// where names whether a step runs inside a callback.
func (m *heapRef) where() string {
	if m.inCallback {
		return "in callback"
	}
	return "outside callbacks"
}

// cancel takes the live entry r out, through its ref or its timer.
func (m *heapRef) cancel(r *refEvent) {
	var ok bool
	if r.timer >= 0 {
		ok = m.timers[r.timer].Stop()
		m.armed[r.timer] = nil
	} else {
		ok = r.ev.Cancel()
	}
	if !ok {
		m.t.Fatalf("seed %d: cancel of a pending event (at=%v seq=%d) returned false", m.seed, r.at, r.seq)
	}
	m.drop(r)
}

func (m *heapRef) drop(r *refEvent) {
	i := slices.Index(m.live, r)
	if i < 0 {
		m.t.Fatalf("seed %d: event (at=%v seq=%d) not in the reference", m.seed, r.at, r.seq)
	}
	m.live = slices.Delete(m.live, i, i+1)
}

// fire is every callback: r must be the least live key, firing at its
// time, and no longer pending or cancellable; the callback then acts.
func (m *heapRef) fire(r *refEvent) {
	t := m.t
	for _, o := range m.live {
		if o.before(r) {
			t.Fatalf("seed %d: fired (at=%v seq=%d) before (at=%v seq=%d)", m.seed, r.at, r.seq, o.at, o.seq)
		}
	}
	if now := m.eng.Now(); now != r.at {
		t.Fatalf("seed %d: event for %v fired at %v", m.seed, r.at, now)
	}
	m.drop(r)
	m.fired++
	if r.timer >= 0 {
		m.armed[r.timer] = nil
	} else if r.ev.Pending() || r.ev.Cancel() {
		t.Fatalf("seed %d: the firing event is still pending", m.seed)
	}
	m.check()
	m.inCallback = true
	m.act()
	m.inCallback = false
}

// act makes a random step on the engine: scheduling 0 to 3 events,
// restarting, stopping or cancelling; inside callbacks also cancelling
// the successor it has just scheduled, and Stop. Every step is checked.
func (m *heapRef) act() {
	switch op := m.rng.IntN(20); {
	case op < 8:
		// 0-3 successors in a callback, 0.85 on average, so chains die
		// out; 1-3 events outside.
		n := 1 + m.rng.IntN(3)
		if m.inCallback {
			n = [...]int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3}[m.rng.IntN(10)]
			if len(m.live) > 100 {
				n = 0
			}
			m.seen[fmt.Sprintf("callback schedules %d", n)]++
		}
		for i := 0; i < n; i++ {
			m.schedule(m.delay())
			m.check()
		}
	case op < 12:
		m.restartRelative(m.rng.IntN(refTimers))
	case op < 14:
		m.seen["timer stop "+m.where()]++
		if k := m.rng.IntN(refTimers); m.timers[k].Stop() != (m.armed[k] != nil) {
			m.t.Fatalf("seed %d: Stop of timer %d disagrees with the reference", m.seed, k)
		} else if m.armed[k] != nil {
			m.drop(m.armed[k])
			m.armed[k] = nil
		}
	case op < 17:
		if len(m.live) > 0 {
			m.seen["cancel "+m.where()]++
			m.cancel(m.live[m.rng.IntN(len(m.live))])
		}
	case op < 19:
		if m.inCallback {
			// The first scheduling of a callback takes the root slot.
			if m.eng.firing {
				m.seen["cancel the successor at the root"]++
			}
			m.cancel(m.schedule(m.delay()))
		}
	default:
		if m.inCallback && m.rng.IntN(4) == 0 {
			m.seen["stop in callback"]++
			m.eng.Stop()
			m.stop = true
		}
	}
	m.check()
}

// check compares the engine with the reference: heap order, QueueLen and
// every handle's Pending.
func (m *heapRef) check() {
	t := m.t
	t.Helper()
	checkHeap(t, m.eng)
	if got := m.eng.QueueLen(); got != len(m.live) {
		t.Fatalf("seed %d: QueueLen %d, want %d live", m.seed, got, len(m.live))
	}
	for _, r := range m.live {
		if r.timer < 0 && !r.ev.Pending() {
			t.Fatalf("seed %d: live event (at=%v seq=%d) not pending", m.seed, r.at, r.seq)
		}
	}
	for k, tm := range m.timers {
		if tm.Pending() != (m.armed[k] != nil) {
			t.Fatalf("seed %d: timer %d pending %v, reference %v", m.seed, k, tm.Pending(), m.armed[k] != nil)
		}
	}
}

// run runs to until and checks what is left: a stopped run returns
// ErrStopped, a full one leaves nothing due and the clock at until.
func (m *heapRef) run(until time.Duration) {
	err := m.eng.Run(until)
	if err == nil {
		for _, r := range m.live {
			if r.at <= until {
				m.t.Fatalf("seed %d: event for %v left after Run(%v)", m.seed, r.at, until)
			}
		}
		if m.eng.Now() != until {
			m.t.Fatalf("seed %d: clock %v after Run(%v)", m.seed, m.eng.Now(), until)
		}
	}
	m.settled(err, false)
}

// runAll runs under a cap of maxEvents: unless stopped, it either empties
// the queue within the cap or dispatches exactly the cap and reports it.
func (m *heapRef) runAll(maxEvents int) {
	before := m.fired
	err := m.eng.RunAll(uint64(maxEvents))
	n := m.fired - before
	capped := err != nil && err != ErrStopped
	if capped {
		m.seen["RunAll cap"]++
	}
	if capped && (n != maxEvents || len(m.live) == 0) || err == nil && len(m.live) > 0 {
		m.t.Fatalf("seed %d: RunAll(%d) returned %v after %d events with %d left", m.seed, maxEvents, err, n, len(m.live))
	}
	m.settled(err, capped)
}

// settled checks a run's error against the reference: ErrStopped exactly
// when a callback stopped it, another error only when capped, and in
// every case no firing root left behind.
func (m *heapRef) settled(err error, capped bool) {
	t := m.t
	switch {
	case m.stop:
		if err != ErrStopped {
			t.Fatalf("seed %d: stopped run returned %v", m.seed, err)
		}
	case err != nil && !capped:
		t.Fatalf("seed %d: %v", m.seed, err)
	}
	m.stop = false
	if m.eng.firing {
		t.Fatalf("seed %d: run returned with the firing event still at the root", m.seed)
	}
	m.check()
}

// TestHeapMatchesSortedOrder is the engine's differential test. It drives
// random interleavings of scheduling, cancellation (from any heap
// position), timer restarts to earlier, later and equal times, timer
// stops, partial runs, capped RunAll and Stop, both from outside
// callbacks and from inside them, where a callback schedules 0, 1 or
// several successors and may cancel the one it has just placed at the
// root. A sorted reference list of the live (at, seq) keys must agree
// with every dispatch, and the heap, QueueLen and Pending must agree with
// it after every step. Coarse timestamps make ties common, so FIFO order
// at equal instants, and the fresh seq a re-armed timer takes, are
// exercised throughout.
func TestHeapMatchesSortedOrder(t *testing.T) {
	seen := map[string]int{}
	for seed := uint64(1); seed <= 40; seed++ {
		m := newHeapRef(t, seed, seen)
		for step := 0; step < 300; step++ {
			switch op := m.rng.IntN(10); {
			case op < 7:
				m.act()
			case op < 9:
				m.run(m.eng.Now() + time.Duration(m.rng.IntN(10))*time.Millisecond)
			default:
				m.runAll(1 + m.rng.IntN(30))
			}
		}
		if m.fired < 150 {
			t.Fatalf("seed %d: only %d events fired", seed, m.fired)
		}
	}
	for _, where := range []string{"in callback", "outside callbacks"} {
		for _, kind := range []string{"restart earlier ", "restart later ", "restart same instant ", "timer stop ", "cancel "} {
			if seen[kind+where] == 0 {
				t.Errorf("no %s%s", kind, where)
			}
		}
	}
	for _, kind := range []string{"callback schedules 0", "callback schedules 1", "callback schedules 3",
		"cancel the successor at the root", "stop in callback", "RunAll cap"} {
		if seen[kind] == 0 {
			t.Errorf("no %s", kind)
		}
	}
	t.Logf("steps taken: %v", seen)
}
