package radio

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// BenchmarkBroadcastBlast measures the per-transmission cost of the medium
// with a dense neighborhood (the hot path of every simulation).
func BenchmarkBroadcastBlast(b *testing.B) {
	eng := sim.NewEngine()
	params := DefaultParams()
	params.RefLossDB = 35 // dense connectivity
	m, err := NewMedium(eng, topology.TightGrid(1), nil, params, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < m.NumNodes(); i++ {
		m.Radio(NodeID(i)).SetOn(true)
	}
	tx := m.Radio(NodeID(112)) // center
	f := &Frame{Kind: FrameData, Src: 112, Dst: BroadcastID, Size: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Transmit(f, 0); err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPRRCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prrFromSNR(1.5, 40)
	}
}

// benchDeployment is a side×side jittered grid at refgrid density
// (13.125 m spacing), the geometry of the scale study.
func benchDeployment(side int, seed uint64) *topology.Deployment {
	span := 13.125 * float64(side)
	return topology.Grid(fmt.Sprintf("bench-%dx%d", side, side), side, side,
		span, span, true, topology.Point{X: span / 2, Y: span / 2}, seed)
}

func benchParams(model GainModel) Params {
	params := DefaultParams()
	params.RefLossDB = 35
	params.InterferenceFloorDBm = -106
	params.GainModel = model
	return params
}

// BenchmarkMediumConstruction measures building the channel state:
// GainSweep pays the historical O(n²) draw sweep (kept for trace
// compatibility), GainPerLink builds from the spatial index in
// O(n·neighbors). The n≥1024 sizes only run per-link — the point of the
// sparse medium is that the sweep is never taken to those scales.
func BenchmarkMediumConstruction(b *testing.B) {
	cases := []struct {
		side  int
		model GainModel
		name  string
	}{
		{10, GainSweep, "n=100/sweep"},
		{10, GainPerLink, "n=100/perlink"},
		{32, GainSweep, "n=1024/sweep"},
		{32, GainPerLink, "n=1024/perlink"},
		{64, GainPerLink, "n=4096/perlink"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			dep := benchDeployment(c.side, 1)
			params := benchParams(c.model)
			b.ReportAllocs()
			b.ResetTimer()
			var links int
			for i := 0; i < b.N; i++ {
				m, err := NewMedium(sim.NewEngine(), dep, nil, params, 1)
				if err != nil {
					b.Fatal(err)
				}
				links = m.NumLinks()
			}
			b.ReportMetric(float64(links), "links")
		})
	}
}

// BenchmarkMediumScale measures the per-frame broadcast cost on a live
// field: a transmission fans out to the audible neighborhood, so the
// per-frame cost must track node degree, not field size.
func BenchmarkMediumScale(b *testing.B) {
	for _, side := range []int{10, 32} {
		b.Run(fmt.Sprintf("n=%d", side*side), func(b *testing.B) {
			dep := benchDeployment(side, 1)
			eng := sim.NewEngine()
			m, err := NewMedium(eng, dep, nil, benchParams(GainPerLink), 1)
			if err != nil {
				b.Fatal(err)
			}
			n := m.NumNodes()
			for i := 0; i < n; i++ {
				m.Radio(NodeID(i)).SetOn(true)
			}
			f := &Frame{Kind: FrameData, Dst: BroadcastID, Size: 30}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Src = NodeID(i % n)
				if err := m.Radio(f.Src).Transmit(f, 0); err != nil {
					b.Fatal(err)
				}
				if err := eng.Run(eng.Now() + 10*time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dutyCycledField is the duty-cycled delivery workload shared by
// BenchmarkMediumDutyCycled and TestDutyCycledAllocFree: a 100-node field
// at refgrid density where about 30% of radios listen while the rest
// sleep, as under low-power listening, and four broadcasts overlap per
// step. Most receivers are asleep or transmitting when a frame starts,
// the case the fully-awake one-frame-at-a-time benchmarks never see.
type dutyCycledField struct {
	eng   *sim.Engine
	m     *Medium
	frame *Frame
	step  int
}

// dutyCycledSenders is the number of overlapping broadcasts per step.
const dutyCycledSenders = 4

func newDutyCycledField(tb testing.TB) *dutyCycledField {
	eng := sim.NewEngine()
	m, err := NewMedium(eng, benchDeployment(10, 1), nil, benchParams(GainPerLink), 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < m.NumNodes(); i++ {
		m.Radio(NodeID(i)).SetOn(listensDutyCycled(i))
	}
	return &dutyCycledField{eng: eng, m: m, frame: &Frame{Kind: FrameData, Dst: BroadcastID, Size: 30}}
}

// listensDutyCycled scatters the 30% of listening radios over the field.
func listensDutyCycled(i int) bool { return i*37%10 < 3 }

// run performs one step: four senders spread over the field wake, put
// overlapping broadcasts on the air, and return to their duty state once
// the frames have left it.
func (d *dutyCycledField) run(tb testing.TB) {
	n := d.m.NumNodes()
	var senders [dutyCycledSenders]NodeID
	for k := range senders {
		senders[k] = NodeID((d.step*dutyCycledSenders + k*n/dutyCycledSenders) % n)
		r := d.m.Radio(senders[k])
		r.SetOn(true)
		d.frame.Src = senders[k]
		if err := r.Transmit(d.frame, 0); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.eng.Run(d.eng.Now() + 10*time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	for _, s := range senders {
		d.m.Radio(s).SetOn(listensDutyCycled(int(s)))
	}
	d.step++
}

// BenchmarkMediumDutyCycled measures one duty-cycled step (four
// overlapping broadcasts into a field with ~30% of radios listening).
func BenchmarkMediumDutyCycled(b *testing.B) {
	d := newDutyCycledField(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.run(b)
	}
}

// BenchmarkFastMW measures one fastMW conversion over received powers
// spread across the medium's range.
func BenchmarkFastMW(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	dbm := make([]float64, 1024)
	for i := range dbm {
		dbm[i] = -110 + 110*rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += fastMW(dbm[i&1023])
	}
	benchSink = sum
}

// BenchmarkRxDecide measures one draw-first reception decision
// (rxDecide, interference-free, so the SNR is the signal over a unit
// noise) over a fixed seeded batch of gray-zone frames: SNRs whose PRR
// lies between 0.01 and 0.99 for the frame's length, each with a uniform
// draw.
func BenchmarkRxDecide(b *testing.B) {
	type decision struct {
		u, snr     float64
		frameBytes int
	}
	p := DefaultParams()
	rng := rand.New(rand.NewPCG(7, 20))
	batch := make([]decision, 0, 1024)
	for len(batch) < cap(batch) {
		d := decision{u: rng.Float64(), snr: 3 * rng.Float64(), frameBytes: 20 + rng.IntN(108)}
		if prr := prrFromSNR(d.snr, d.frameBytes); prr > 0.01 && prr < 0.99 {
			batch = append(batch, d)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		d := &batch[i&1023]
		if p.rxDecide(d.u, d.snr, 0, 1, d.frameBytes-phyOverheadBytes) {
			n++
		}
	}
	benchSink = float64(n)
}

var benchSink float64
