// Package trickle implements the Trickle algorithm (RFC 6206), the timer
// discipline CTP and Drip use to pace routing beacons and dissemination
// advertisements: exponential backoff while the network is consistent,
// immediate reset on inconsistency, and suppression when enough redundant
// messages are heard.
package trickle

import (
	"math/rand/v2"
	"time"

	"teleadjust/internal/sim"
)

// Config holds Trickle parameters.
type Config struct {
	// IMin is the minimum interval size.
	IMin time.Duration
	// IMax is the maximum interval size (RFC 6206 expresses it as
	// doublings of IMin; here it is the absolute cap).
	IMax time.Duration
	// K is the redundancy constant: the message is suppressed when K or
	// more consistent messages were heard in the current interval. K<=0
	// disables suppression.
	K int
}

// DefaultConfig matches TinyOS CTP beacon timing: 128 ms minimum interval
// doubling up to 512 s.
func DefaultConfig() Config {
	return Config{
		IMin: 128 * time.Millisecond,
		IMax: 512 * time.Second,
		K:    0,
	}
}

// Timer is a Trickle timer instance. Fire callbacks happen at the random
// point t ∈ [I/2, I) of each interval unless suppressed.
type Timer struct {
	eng *sim.Engine
	cfg Config
	rng *rand.Rand
	fn  func()

	interval time.Duration
	counter  int
	running  bool
	resets   uint64

	fireEv sim.EventRef
	endEv  sim.EventRef
	// fireFn/endFn are bound once at construction so starting an interval
	// allocates no closures.
	fireFn func()
	endFn  func()
}

// New creates a stopped Trickle timer that calls fn on each unsuppressed
// firing.
func New(eng *sim.Engine, cfg Config, rng *rand.Rand, fn func()) *Timer {
	if cfg.IMin <= 0 || cfg.IMax < cfg.IMin {
		panic("trickle: invalid interval configuration")
	}
	t := &Timer{eng: eng, cfg: cfg, rng: rng, fn: fn}
	t.fireFn = t.fire
	t.endFn = t.endInterval
	return t
}

// Start begins the algorithm with the minimum interval.
func (t *Timer) Start() {
	if t.running {
		return
	}
	t.running = true
	t.interval = t.cfg.IMin
	t.beginInterval()
}

// Stop halts the timer.
func (t *Timer) Stop() {
	t.running = false
	t.cancelInterval()
}

// Running reports whether the timer is active.
func (t *Timer) Running() bool { return t.running }

// Interval returns the current interval size.
func (t *Timer) Interval() time.Duration { return t.interval }

// Hear records a consistent message (counts toward suppression).
func (t *Timer) Hear() {
	if t.running {
		t.counter++
	}
}

// Resets returns the number of Reset calls, no-ops included.
func (t *Timer) Resets() uint64 { return t.resets }

// Reset reacts to an inconsistency: shrink the interval to IMin and start a
// new interval immediately (no-op if already at IMin, per RFC 6206 §4.2).
func (t *Timer) Reset() {
	t.resets++
	if !t.running {
		t.Start()
		return
	}
	if t.interval == t.cfg.IMin {
		return
	}
	t.interval = t.cfg.IMin
	t.cancelInterval()
	t.beginInterval()
}

func (t *Timer) cancelInterval() {
	t.fireEv.Cancel()
	t.fireEv = sim.EventRef{}
	t.endEv.Cancel()
	t.endEv = sim.EventRef{}
}

func (t *Timer) beginInterval() {
	t.counter = 0
	half := t.interval / 2
	fireAt := half + time.Duration(t.rng.Int64N(int64(t.interval-half)))
	t.fireEv = t.eng.Schedule(fireAt, t.fireFn)
	t.endEv = t.eng.Schedule(t.interval, t.endFn)
}

func (t *Timer) fire() {
	t.fireEv = sim.EventRef{}
	if !t.running {
		return
	}
	if t.cfg.K <= 0 || t.counter < t.cfg.K {
		t.fn()
	}
}

func (t *Timer) endInterval() {
	t.endEv = sim.EventRef{}
	if !t.running {
		return
	}
	t.interval *= 2
	if t.interval > t.cfg.IMax {
		t.interval = t.cfg.IMax
	}
	t.beginInterval()
}
