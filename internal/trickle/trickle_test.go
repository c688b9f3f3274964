package trickle

import (
	"testing"
	"testing/quick"
	"time"

	"teleadjust/internal/sim"
)

func newTimer(eng *sim.Engine, cfg Config, fired *[]time.Duration) *Timer {
	return New(eng, cfg, sim.NewRNG(1), func() {
		*fired = append(*fired, eng.Now())
	})
}

func TestIntervalDoublesToMax(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IMin: 100 * time.Millisecond, IMax: 800 * time.Millisecond}
	var fired []time.Duration
	tr := newTimer(eng, cfg, &fired)
	tr.Start()
	if tr.Interval() != cfg.IMin {
		t.Fatalf("initial interval %v, want IMin", tr.Interval())
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tr.Interval() != cfg.IMax {
		t.Fatalf("interval %v after long run, want IMax", tr.Interval())
	}
	// Intervals: 100,200,400,800,800,... → by 10s roughly 13 firings.
	if len(fired) < 8 || len(fired) > 16 {
		t.Fatalf("fired %d times in 10s, want ~13", len(fired))
	}
}

func TestFiringInSecondHalf(t *testing.T) {
	// Property: each firing falls in [I/2, I) of its interval. We verify
	// the first interval precisely across many seeds.
	f := func(seed uint64) bool {
		eng := sim.NewEngine()
		cfg := Config{IMin: 100 * time.Millisecond, IMax: 100 * time.Millisecond}
		var at time.Duration
		tr := New(eng, cfg, sim.NewRNG(seed), func() {
			if at == 0 {
				at = eng.Now()
			}
		})
		tr.Start()
		// The second interval's firing is at >=150ms, so running to 100ms
		// captures exactly the first interval's firing.
		if err := eng.Run(100 * time.Millisecond); err != nil {
			return false
		}
		// Stop so later intervals don't fire.
		tr.Stop()
		return at >= 50*time.Millisecond && at < 100*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResetShrinksInterval(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IMin: 100 * time.Millisecond, IMax: 6400 * time.Millisecond}
	var fired []time.Duration
	tr := newTimer(eng, cfg, &fired)
	tr.Start()
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tr.Interval() <= cfg.IMin {
		t.Fatal("interval did not grow before reset")
	}
	tr.Reset()
	if tr.Interval() != cfg.IMin {
		t.Fatalf("interval after reset = %v, want IMin", tr.Interval())
	}
	n := len(fired)
	if err := eng.Run(eng.Now() + 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) <= n {
		t.Fatal("no firing shortly after reset")
	}
}

func TestResetAtIMinIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IMin: 100 * time.Millisecond, IMax: 800 * time.Millisecond}
	var fired []time.Duration
	tr := newTimer(eng, cfg, &fired)
	tr.Start()
	// Reset repeatedly within the first interval; per RFC 6206 this must
	// not postpone the firing indefinitely.
	for i := 1; i <= 4; i++ {
		eng.Schedule(time.Duration(i)*10*time.Millisecond, tr.Reset)
	}
	if err := eng.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) == 0 {
		t.Fatal("resets at IMin starved the timer")
	}
}

func TestSuppression(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IMin: 100 * time.Millisecond, IMax: 100 * time.Millisecond, K: 2}
	var fired []time.Duration
	tr := newTimer(eng, cfg, &fired)
	tr.Start()
	// Feed >= K consistent messages early in every interval.
	tick := sim.NewTicker(eng, 20*time.Millisecond, func() { tr.Hear() })
	tick.Start()
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("fired %d times despite suppression", len(fired))
	}
}

func TestNoSuppressionWhenQuiet(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IMin: 100 * time.Millisecond, IMax: 100 * time.Millisecond, K: 2}
	var fired []time.Duration
	tr := newTimer(eng, cfg, &fired)
	tr.Start()
	// One Hear per interval is below K=2: no suppression.
	tick := sim.NewTicker(eng, 100*time.Millisecond, func() { tr.Hear() })
	tick.Start()
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) < 8 {
		t.Fatalf("fired %d times, want ~10", len(fired))
	}
}

func TestStop(t *testing.T) {
	eng := sim.NewEngine()
	var fired []time.Duration
	tr := newTimer(eng, DefaultConfig(), &fired)
	tr.Start()
	eng.Schedule(50*time.Millisecond, tr.Stop)
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tr.Running() {
		t.Fatal("timer running after Stop")
	}
	for _, at := range fired {
		if at > 50*time.Millisecond {
			t.Fatalf("fired at %v after Stop", at)
		}
	}
}

func TestResetWhileStoppedStarts(t *testing.T) {
	eng := sim.NewEngine()
	var fired []time.Duration
	tr := newTimer(eng, DefaultConfig(), &fired)
	tr.Reset()
	if !tr.Running() {
		t.Fatal("Reset on stopped timer did not start it")
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) == 0 {
		t.Fatal("timer never fired after Reset-start")
	}
}

// TestTrickleIntervalAllocFree pins that starting an interval, at its
// natural end or on a Reset, allocates nothing once the engine's event
// pool is warm: the fire and end callbacks are bound once per timer.
func TestTrickleIntervalAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{IMin: 100 * time.Millisecond, IMax: 400 * time.Millisecond}
	fired := 0
	tr := New(eng, cfg, sim.NewRNG(1), func() { fired++ })
	tr.Start()
	step := func() {
		if err := eng.Run(eng.Now() + cfg.IMax); err != nil {
			t.Fatal(err)
		}
		tr.Reset()
	}
	step()
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("%v allocs per interval step, want 0", a)
	}
	if fired == 0 {
		t.Fatal("timer never fired")
	}
}
