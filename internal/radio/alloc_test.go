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
// once every sender rotation has warmed the air slices and pools.
func TestDutyCycledAllocFree(t *testing.T) {
	d := newDutyCycledField(t)
	for i := 0; i < d.m.NumNodes(); i++ {
		d.run(t)
	}
	if allocs := testing.AllocsPerRun(200, func() { d.run(t) }); allocs != 0 {
		t.Fatalf("duty-cycled step allocates %v, want 0", allocs)
	}
}
