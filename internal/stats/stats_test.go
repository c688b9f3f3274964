package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 2.8 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Stddev() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series should return zeros")
	}
	// Min/Max follow the same convention: an empty series must never leak
	// ±Inf into a report (check Count to distinguish a genuine zero).
	if s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty min/max = %v/%v, want 0/0", s.Min(), s.Max())
	}
}

func TestStddev(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if math.Abs(s.Stddev()-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", s.Stddev())
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestPercentileHelpers(t *testing.T) {
	var s Series
	for i := 1; i <= 200; i++ {
		s.Add(float64(i))
	}
	if got := s.P50(); got != 100 {
		t.Fatalf("P50 = %v, want 100", got)
	}
	if got := s.P95(); got != 190 {
		t.Fatalf("P95 = %v, want 190", got)
	}
	if got := s.P99(); got != 198 {
		t.Fatalf("P99 = %v, want 198", got)
	}
}

func TestPercentileHelpersEmpty(t *testing.T) {
	var s Series
	if s.P50() != 0 || s.P95() != 0 || s.P99() != 0 {
		t.Fatalf("empty percentiles = %v/%v/%v, want zeros", s.P50(), s.P95(), s.P99())
	}
}

func TestPercentileHelpersSingleElement(t *testing.T) {
	var s Series
	s.Add(42.5)
	// Every percentile of a one-sample series is that sample.
	if s.P50() != 42.5 || s.P95() != 42.5 || s.P99() != 42.5 {
		t.Fatalf("single-element percentiles = %v/%v/%v, want 42.5", s.P50(), s.P95(), s.P99())
	}
}

func TestByKey(t *testing.T) {
	b := NewByKey()
	b.Add(2, 10)
	b.Add(1, 5)
	b.Add(2, 20)
	keys := b.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if b.Get(2).Mean() != 15 {
		t.Fatalf("mean(2) = %v", b.Get(2).Mean())
	}
	if b.Get(99) != nil {
		t.Fatal("missing key should be nil")
	}
	tbl := b.Table("hop", "x")
	if !strings.Contains(tbl, "hop") || !strings.Contains(tbl, "15.000") {
		t.Fatalf("table rendering broken:\n%s", tbl)
	}
}

func TestSeriesMerge(t *testing.T) {
	var empty, into Series
	empty.Merge(&Series{})
	empty.Merge(nil)
	if empty.Count() != 0 {
		t.Fatalf("empty into empty: count %d", empty.Count())
	}
	var src Series
	for _, v := range []float64{3, 1, 2} {
		src.Add(v)
	}
	into.Merge(&src)
	src.Add(9) // the merged copy must not alias src's samples
	into.Add(4)
	into.Merge(&Series{})
	if got, want := into.Values(), []float64{3, 1, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("into empty then Add: %v, want %v", got, want)
	}
	into.Merge(&src)
	if got, want := into.Values(), []float64{3, 1, 2, 4, 3, 1, 2, 9}; !slices.Equal(got, want) {
		t.Fatalf("merge order: %v, want %v", got, want)
	}
}

func TestScatter(t *testing.T) {
	var sc Scatter
	sc.Add(1, 10)
	sc.Add(1, 20)
	sc.Add(2, 30)
	if sc.Len() != 3 {
		t.Fatalf("len = %d", sc.Len())
	}
	byX := sc.MeanYForX()
	if byX.Get(1).Mean() != 15 || byX.Get(2).Mean() != 30 {
		t.Fatal("MeanYForX aggregation wrong")
	}
}

func TestSeriesMeanBoundedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Clamp to a physical range; the accumulator overflows near
			// ±MaxFloat64, which no metric here approaches.
			s.Add(math.Mod(v, 1e12))
		}
		if s.Count() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
