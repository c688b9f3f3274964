package sim

import (
	"testing"
	"time"
)

// These are whitebox tests for the event free list: events are recycled
// after firing or cancellation, so every handle the engine gives out must
// be generation-checked and every lifecycle transition explicit. A stale
// EventRef acting on a recycled event would cancel somebody else's
// scheduling — the classic pooling bug this file pins against.

// TestEventPoolRecycles verifies fired and cancelled events return to the
// free list and are reused by later schedulings.
func TestEventPoolRecycles(t *testing.T) {
	eng := NewEngine()
	r1 := eng.Schedule(time.Millisecond, func() {})
	first := r1.e
	if first.state != eventPending {
		t.Fatalf("scheduled event state = %d, want pending", first.state)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if first.state != eventFired {
		t.Fatalf("state after firing = %d, want fired", first.state)
	}
	if len(eng.free) != 1 || eng.free[0] != first {
		t.Fatalf("fired event not pooled (free list %v)", eng.free)
	}
	r2 := eng.Schedule(time.Millisecond, func() {})
	if r2.e != first {
		t.Fatal("second scheduling did not reuse the pooled event")
	}
	if r2.gen == r1.gen {
		t.Fatal("recycled event kept its generation")
	}
	if !r2.Cancel() {
		t.Fatal("cancel of live recycled event failed")
	}
	if first.state != eventCancelled {
		t.Fatalf("state after cancel = %d, want cancelled", first.state)
	}
	if len(eng.free) != 1 {
		t.Fatalf("cancelled event not pooled (free list len %d)", len(eng.free))
	}
}

// TestStaleRefCannotTouchRecycledEvent is the resurrection guard: a ref
// held past its event's firing must become inert even though the event
// object is already serving a new scheduling.
func TestStaleRefCannotTouchRecycledEvent(t *testing.T) {
	eng := NewEngine()
	stale := eng.Schedule(time.Millisecond, func() {})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// The recycled object now carries a different, live scheduling.
	fired := false
	live := eng.Schedule(time.Millisecond, func() { fired = true })
	if live.e != stale.e {
		t.Fatal("test setup: pool did not hand back the same event")
	}
	if stale.Pending() {
		t.Fatal("stale ref reports pending")
	}
	if stale.Cancel() {
		t.Fatal("stale ref cancelled the recycled event's new scheduling")
	}
	if stale.At() != 0 {
		t.Fatalf("stale ref At = %v, want 0", stale.At())
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("live scheduling was lost")
	}
}

// TestCancelDuringOwnCallback pins that cancelling the event currently
// firing (possible when a callback reaches its own handle) is a no-op
// rather than a heap corruption or double release.
func TestCancelDuringOwnCallback(t *testing.T) {
	eng := NewEngine()
	var self EventRef
	cancelled := true
	self = eng.Schedule(time.Millisecond, func() {
		cancelled = self.Cancel()
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if cancelled {
		t.Fatal("event cancelled itself while firing")
	}
	if len(eng.free) != 1 {
		t.Fatalf("free list len %d after run, want 1", len(eng.free))
	}
}

// TestScheduleArg pins the closure-free scheduling path: fn(arg) fires
// with the argument it was scheduled with, in timestamp order alongside
// plain Schedule events.
func TestScheduleArg(t *testing.T) {
	eng := NewEngine()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	one, two, three := 1, 2, 3
	eng.ScheduleArg(2*time.Millisecond, record, &two)
	eng.ScheduleArg(3*time.Millisecond, record, &three)
	eng.ScheduleArg(time.Millisecond, record, &one)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("ScheduleArg order = %v, want [1 2 3]", got)
	}
}

// TestStopBetweenRuns is the regression test for the dropped-Stop bug:
// dispatch used to clear the stop flag on entry, so a Stop issued while
// no Run was in progress vanished silently. The contract is that a stop
// request persists until observed — the next Run returns ErrStopped —
// and is then cleared.
func TestStopBetweenRuns(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.Schedule(time.Millisecond, func() { fired = true })
	eng.Stop()
	if err := eng.Run(time.Second); err != ErrStopped {
		t.Fatalf("Run after idle Stop = %v, want ErrStopped", err)
	}
	if fired {
		t.Fatal("event fired despite pending stop")
	}
	// The request was observed exactly once: the next Run proceeds.
	if err := eng.Run(time.Second); err != nil {
		t.Fatalf("Run after observed stop = %v", err)
	}
	if !fired {
		t.Fatal("event lost after stop was observed")
	}
	// Same contract on the RunAll path.
	eng.Schedule(time.Millisecond, func() {})
	eng.Stop()
	if err := eng.RunAll(100); err != ErrStopped {
		t.Fatalf("RunAll after idle Stop = %v, want ErrStopped", err)
	}
	if err := eng.RunAll(100); err != nil {
		t.Fatalf("RunAll after observed stop = %v", err)
	}
}

// TestScheduleAllocFree is the alloc contract for the scheduling hot
// path: once the pool is warm, schedule→fire cycles and timer restarts
// allocate nothing.
func TestScheduleAllocFree(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(time.Microsecond, fn)
		if err := eng.Run(eng.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("schedule+fire allocates %v per cycle, want 0", allocs)
	}
	argFn := func(any) {}
	arg := &struct{}{}
	if allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleArg(time.Microsecond, argFn, arg)
		if err := eng.Run(eng.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ScheduleArg+fire allocates %v per cycle, want 0", allocs)
	}
	tm := NewTimer(eng, fn)
	if allocs := testing.AllocsPerRun(1000, func() {
		tm.Start(time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Timer.Start allocates %v per restart, want 0", allocs)
	}
}

// TestChainAndRearmAllocFree is the alloc contract of the two in-place
// paths: a callback's scheduling, which takes the fired event's root
// slot, and the restart of a pending timer, which re-keys its event
// where it sits, allocate nothing once the pool is warm.
func TestChainAndRearmAllocFree(t *testing.T) {
	eng := NewEngine()
	var chain func()
	chain = func() { eng.Schedule(time.Millisecond, chain) }
	for i := 0; i < 64; i++ {
		eng.Schedule(time.Duration(i+1)*time.Microsecond, chain)
	}
	tm := NewTimer(eng, func() {})
	step := func() {
		tm.Start(time.Hour)
		if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	step()
	before := eng.Processed()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a timer re-arm and 10 ms of callback chains allocate %v, want 0", allocs)
	}
	if n := eng.Processed() - before; n != 101*640 {
		t.Fatalf("%d events dispatched over 101 steps, want %d", n, 101*640)
	}
	if eng.QueueLen() != 65 || !tm.Pending() {
		t.Fatalf("queue %d (timer pending %v), want the 64 chains and the timer", eng.QueueLen(), tm.Pending())
	}
}
