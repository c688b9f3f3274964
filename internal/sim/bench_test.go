package sim

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	eng := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			if err := eng.Run(eng.Now() + time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTimerRestart restarts a pending timer alone in the heap and
// among 576 events spread over one 512 ms LPL wake period (the mean
// queue of the refgrid workloads), each time a little later, as the
// MAC's idle timer moves on every received frame.
func BenchmarkTimerRestart(b *testing.B) {
	for _, pending := range []int{0, 576} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			eng := NewEngine()
			fn := func() {}
			for i := 0; i < pending; i++ {
				eng.Schedule(time.Duration(i)*512*time.Millisecond/time.Duration(pending), fn)
			}
			tm := NewTimer(eng, fn)
			tm.Start(100 * time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Start(100*time.Millisecond + time.Duration(i%1000)*time.Microsecond)
			}
		})
	}
}

// BenchmarkEventChain dispatches events whose callbacks each schedule
// their successor: one chain that steps 1 ms at a time, as probe
// samples, backoffs and ack waits do, among 43 or 576 wake ticks (the
// mean queues of the line and refgrid workloads) that each re-arm one
// 512 ms LPL period on. One op is one dispatched event.
func BenchmarkEventChain(b *testing.B) {
	const period = 512 * time.Millisecond
	for _, pending := range []int{43, 576} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			eng := NewEngine()
			left := b.N
			count := func() {
				if left--; left == 0 {
					eng.Stop()
				}
			}
			var step, tick func()
			step = func() {
				count()
				eng.Schedule(time.Millisecond, step)
			}
			tick = func() {
				count()
				eng.Schedule(period, tick)
			}
			for i := 0; i < pending; i++ {
				eng.Schedule(time.Duration(i)*period/time.Duration(pending), tick)
			}
			eng.Schedule(0, step)
			b.ReportAllocs()
			b.ResetTimer()
			if err := eng.RunAll(0); err != ErrStopped {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkDeriveRNG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DeriveRNG(42, uint64(i))
	}
}
