package radio

import (
	"testing"
	"time"

	"teleadjust/internal/sim"
)

// TestBroadcastAllocFree is the alloc contract for the frame hot path: a
// broadcast delivery — transmission start, per-neighbor air tracking,
// end-of-air adjudication, tx-done — must not allocate once the medium's
// pools and per-radio air slices are warm. The path used to cost 20+
// allocations per broadcast (transmission record, end-of-air closure,
// per-neighbor rxContext, event heap nodes); this pins it at zero.
func TestBroadcastAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	dep := benchDeployment(10, 1)
	m, err := NewMedium(eng, dep, nil, benchParams(GainPerLink), 1)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		m.Radio(NodeID(i)).SetOn(true)
	}
	f := &Frame{Kind: FrameData, Dst: BroadcastID, Size: 30}
	broadcast := func(src NodeID) {
		f.Src = src
		if err := m.Radio(src).Transmit(f, 0); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Warm every pool this path touches: one broadcast from each node
	// sizes the per-radio air slices and the event/transmission free lists.
	for i := 0; i < n; i++ {
		broadcast(NodeID(i))
	}
	var src NodeID
	if allocs := testing.AllocsPerRun(200, func() {
		broadcast(src)
		src = (src + 1) % NodeID(n)
	}); allocs != 0 {
		t.Fatalf("broadcast delivery allocates %v per frame, want 0", allocs)
	}
}

// TestDutyCycledAllocFree extends the alloc contract to the duty-cycled
// field of BenchmarkMediumDutyCycled: with most receivers asleep or
// transmitting and four frames overlapping, a step must not allocate
// once every sender rotation has warmed the air slices and pools. Each
// step also churns radios while its frames are on the air: a few
// sleepers wake, rebuilding their air sets from the frames in flight,
// and as many listeners sleep; both return to their duty state once the
// frames have left the air. A wake also inserts the radio into the
// receiver list of each frame on the air that notifies it, and the
// measured window must contain such inserts. Receptions that meet
// interference take a log from the medium's pool, so the pool is inside
// the contract too.
func TestDutyCycledAllocFree(t *testing.T) {
	d := newDutyCycledField(t)
	n := d.m.NumNodes()
	const churned = 6
	rebuilt := 0  // air entries woken radios found on the air
	inserted := 0 // receiver-list inserts of those wakes
	listed := func() (total int) {
		for _, tx := range d.m.inFlight {
			total += len(tx.rcv)
		}
		return total
	}
	flip := func(restore bool) {
		for k := 0; k < churned; k++ {
			i := (d.step*7 + k*17) % n
			if r := d.m.Radio(NodeID(i)); !r.Transmitting() {
				before := listed()
				r.SetOn(listensDutyCycled(i) == restore)
				if !restore && r.On() {
					rebuilt += len(r.air)
					inserted += listed() - before
				}
			}
		}
	}
	midAir := func() { flip(false) }
	afterAir := func() { flip(true) }
	step := func() {
		d.eng.Schedule(d.m.Params().Airtime(d.frame.Size)/2, midAir)
		d.eng.Schedule(5*time.Millisecond, afterAir)
		d.run(t)
	}
	for i := 0; i < n; i++ {
		step()
	}
	if rebuilt == 0 {
		t.Fatal("no radio woke to frames on the air")
	}
	if len(d.m.freeLogs) == 0 {
		t.Fatal("no reception logged an interferer")
	}
	inserted = 0
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("duty-cycled step allocates %v, want 0", allocs)
	}
	if inserted == 0 {
		t.Fatal("no wake inserted into a receiver list in the measured window")
	}
}
