package mac

import (
	"testing"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// BenchmarkMACOnFrame times OnFrame on a warm always-on MAC that hears 32
// sources in turn, each packet a broadcast it delivers:
//
//   - new-key: the next source's next packet, dedupWindow/32 after the
//     last, so about 32 keys are live and the table's sweeps are
//     amortized over the packets;
//   - duplicate: a repeat of a live packet;
//   - sweep: a whole window turning over at once: the clock moves one
//     window on and all 32 sources send a new packet, so every entry of
//     the last burst has lapsed and is swept. One op is the burst.
func BenchmarkMACOnFrame(b *testing.B) {
	const sources = 32
	setup := func(b *testing.B) (*sim.Engine, *MAC, []*radio.Frame) {
		eng := sim.NewEngine()
		params := radio.DefaultParams()
		params.ShadowSigmaDB = 0
		med, err := radio.NewMedium(eng, topology.Line(2, 5), nil, params, 42)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.AlwaysOn = true
		m := New(eng, med.Radio(1), cfg, sim.DeriveRNG(7, 1), &countUpper{class: Classification{Decision: Deliver}})
		m.Start()
		frames := make([]*radio.Frame, sources)
		for i := range frames {
			frames[i] = keyedFrame(radio.NodeID(2+i), 0, 30)
		}
		return eng, m, frames
	}
	advance := func(b *testing.B, eng *sim.Engine, d time.Duration) {
		if err := eng.Run(eng.Now() + d); err != nil {
			b.Fatal(err)
		}
	}
	window := DefaultConfig().dedupWindow()
	newKey := func(b *testing.B, eng *sim.Engine, m *MAC, frames []*radio.Frame, i int) {
		advance(b, eng, window/sources)
		f := frames[i%sources]
		f.Seq++
		m.OnFrame(f)
	}
	b.Run("new-key", func(b *testing.B) {
		eng, m, frames := setup(b)
		for i := 0; i < 8*sources; i++ {
			newKey(b, eng, m, frames, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newKey(b, eng, m, frames, i)
		}
	})
	b.Run("duplicate", func(b *testing.B) {
		eng, m, frames := setup(b)
		for i := 0; i < 8*sources; i++ {
			newKey(b, eng, m, frames, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.OnFrame(frames[i%sources])
		}
	})
	b.Run("sweep", func(b *testing.B) {
		eng, m, frames := setup(b)
		burst := func() {
			advance(b, eng, window+time.Millisecond)
			for _, f := range frames {
				f.Seq++
				m.OnFrame(f)
			}
		}
		for i := 0; i < 8; i++ {
			burst()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			burst()
		}
	})
}
