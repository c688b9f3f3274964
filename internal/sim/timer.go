package sim

import "time"

// Timer is a restartable one-shot timer bound to an Engine. Unlike raw
// Schedule calls, a Timer can be re-armed and always has at most one pending
// firing, which is the discipline protocol state machines need.
type Timer struct {
	eng *Engine
	fn  func()
	// fire is the scheduled callback, bound once at construction so
	// re-arming the timer never allocates a fresh closure (Timer.Start
	// was one of the top allocation sites on the recorded profiles).
	fire func()
	ev   EventRef
}

// NewTimer creates a stopped timer that runs fn when it fires.
func NewTimer(eng *Engine, fn func()) *Timer {
	if eng == nil || fn == nil {
		panic("sim: NewTimer requires engine and function")
	}
	t := &Timer{eng: eng, fn: fn}
	t.fire = func() {
		t.ev = EventRef{}
		t.fn()
	}
	return t
}

// Start (re)arms the timer to fire after d. A pending firing is re-keyed
// in place, to the time and the place among equal-time events that a Stop
// and a fresh Schedule would give it, with one sift instead of a removal
// and a push.
func (t *Timer) Start(d time.Duration) {
	if t.ev.Pending() {
		t.eng.rearm(t.ev.e, d)
		return
	}
	t.ev = t.eng.Schedule(d, t.fire)
}

// Stop cancels a pending firing. It reports whether a firing was pending.
func (t *Timer) Stop() bool {
	ok := t.ev.Cancel()
	t.ev = EventRef{}
	return ok
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// Ticker fires fn every period until stopped.
type Ticker struct {
	eng    *Engine
	fn     func()
	tickFn func() // t.tick, bound once so periodic re-arming never allocates
	period time.Duration
	ev     EventRef
	on     bool
}

// NewTicker creates a stopped ticker.
func NewTicker(eng *Engine, period time.Duration, fn func()) *Ticker {
	if eng == nil || fn == nil {
		panic("sim: NewTicker requires engine and function")
	}
	if period <= 0 {
		panic("sim: NewTicker requires positive period")
	}
	t := &Ticker{eng: eng, fn: fn, period: period}
	t.tickFn = t.tick
	return t
}

// Start begins ticking; the first tick fires one period from now.
func (t *Ticker) Start() {
	if t.on {
		return
	}
	t.on = true
	t.arm()
}

// StartWithOffset begins ticking with the first tick after offset, then
// every period.
func (t *Ticker) StartWithOffset(offset time.Duration) {
	if t.on {
		return
	}
	t.on = true
	t.ev = t.eng.Schedule(offset, t.tickFn)
}

func (t *Ticker) arm() {
	t.ev = t.eng.Schedule(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	if !t.on {
		return
	}
	t.arm()
	t.fn()
}

// Stop halts the ticker. It may be restarted with Start.
func (t *Ticker) Stop() {
	t.on = false
	t.ev.Cancel()
	t.ev = EventRef{}
}
