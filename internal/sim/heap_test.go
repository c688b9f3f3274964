package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// checkHeap fails unless every queued event records its own position and
// no event fires before its parent.
func checkHeap(t *testing.T, q eventQueue) {
	t.Helper()
	for i, ev := range q {
		if ev.idx != i {
			t.Fatalf("q[%d].idx = %d", i, ev.idx)
		}
		if i > 0 && before(ev, q[(i-1)/heapArity]) {
			t.Fatalf("q[%d] (at=%v seq=%d) fires before its parent", i, ev.at, ev.seq)
		}
	}
}

// TestHeapMatchesSortedOrder drives random interleavings of scheduling,
// cancellation (from any heap position) and partial runs, and checks that
// the engine dispatches exactly the live events, in (at, seq) order — the
// order a sorted reference list gives. Coarse timestamps make ties common,
// so FIFO order at equal instants is exercised throughout.
func TestHeapMatchesSortedOrder(t *testing.T) {
	type ref struct {
		at    time.Duration
		label int
		ev    EventRef
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		eng := NewEngine()
		var live []ref
		var fired []int
		label := 0
		for step := 0; step < 300; step++ {
			switch op := rng.IntN(10); {
			case op < 6:
				l := label
				label++
				d := time.Duration(rng.IntN(20)) * time.Millisecond
				ev := eng.Schedule(d, func() { fired = append(fired, l) })
				live = append(live, ref{at: eng.Now() + d, label: l, ev: ev})
			case op < 8 && len(live) > 0:
				k := rng.IntN(len(live))
				if !live[k].ev.Cancel() {
					t.Fatalf("seed %d: Cancel of a pending event returned false", seed)
				}
				live = slices.Delete(live, k, k+1)
			default:
				until := eng.Now() + time.Duration(rng.IntN(10))*time.Millisecond
				// live is in scheduling (seq) order, so a stable sort by
				// time yields the reference (at, seq) order.
				slices.SortStableFunc(live, func(a, b ref) int { return int(a.at - b.at) })
				var want []int
				n := 0
				for n < len(live) && live[n].at <= until {
					want = append(want, live[n].label)
					n++
				}
				live = live[n:]
				fired = fired[:0]
				if err := eng.Run(until); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(fired, want) {
					t.Fatalf("seed %d step %d: fired %v, want %v", seed, step, fired, want)
				}
			}
			checkHeap(t, eng.queue)
			if eng.QueueLen() != len(live) {
				t.Fatalf("seed %d step %d: queue %d, want %d live", seed, step, eng.QueueLen(), len(live))
			}
		}
	}
}
