package noise

import (
	"testing"
	"time"

	"teleadjust/internal/sim"
)

// BenchmarkSourceNext measures one chain step of a trained CPM source —
// the per-sample cost behind every noiseAt call on a live field. On
// grid1k this is the single hottest flat path on record
// (BENCH_profile.json), so its cost and alloc count are contract.
func BenchmarkSourceNext(b *testing.B) {
	m := Train(GenerateTrace(100000, 2))
	src := m.NewSource(sim.NewRNG(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.next()
	}
}

// BenchmarkSourceReadAt measures the lazy catch-up path the radio medium
// actually calls: advancing a source in SamplePeriodMS strides.
func BenchmarkSourceReadAt(b *testing.B) {
	m := Train(GenerateTrace(100000, 2))
	src := m.NewSource(sim.NewRNG(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.ReadAt(time.Duration(i+1) * SamplePeriodMS * time.Millisecond)
	}
}

// BenchmarkTrain measures model construction, paid once per built network
// (the benchmark's setup_s); TestTrainAllocBound pins its alloc count.
func BenchmarkTrain(b *testing.B) {
	trace := GenerateTrace(100000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(trace)
	}
}
