// Package stats provides the small aggregation toolkit the experiment
// runners use to turn raw simulation events into the paper's tables and
// figures: series with summary statistics, keyed (per-hop) groupings and
// scatter clouds.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series accumulates float samples.
type Series struct {
	vals []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) { s.vals = append(s.vals, v) }

// Count returns the number of samples.
func (s *Series) Count() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 for empty series).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Min returns the smallest sample. An empty series returns 0, matching
// Mean and Stddev, so reports never print ±Inf; check Count to tell an
// empty series from one whose minimum is genuinely zero.
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := math.Inf(1)
	for _, v := range s.vals {
		m = math.Min(m, v)
	}
	return m
}

// Max returns the largest sample (0 for empty series; see Min).
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := math.Inf(-1)
	for _, v := range s.vals {
		m = math.Max(m, v)
	}
	return m
}

// Stddev returns the population standard deviation.
func (s *Series) Stddev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var acc float64
	for _, v := range s.vals {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Percentile returns the p-th percentile (0..100) by nearest-rank.
func (s *Series) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.vals))
	copy(sorted, s.vals)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// P50 returns the median by nearest-rank (0 for empty series).
func (s *Series) P50() float64 { return s.Percentile(50) }

// P95 returns the 95th percentile by nearest-rank (0 for empty series).
func (s *Series) P95() float64 { return s.Percentile(95) }

// P99 returns the 99th percentile by nearest-rank (0 for empty series).
func (s *Series) P99() float64 { return s.Percentile(99) }

// Values returns a copy of the samples.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Merge appends all samples of other, in their order.
func (s *Series) Merge(other *Series) {
	if other == nil {
		return
	}
	s.vals = append(s.vals, other.vals...)
}

// ByKey groups samples by an integer key (typically hop count).
type ByKey struct {
	m map[int]*Series
}

// NewByKey creates an empty grouping.
func NewByKey() *ByKey { return &ByKey{m: make(map[int]*Series)} }

// Add records a sample under key.
func (b *ByKey) Add(key int, v float64) {
	s, ok := b.m[key]
	if !ok {
		s = &Series{}
		b.m[key] = s
	}
	s.Add(v)
}

// Keys returns the keys in ascending order.
func (b *ByKey) Keys() []int {
	out := make([]int, 0, len(b.m))
	for k := range b.m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Get returns the series for key (nil if absent).
func (b *ByKey) Get(key int) *Series { return b.m[key] }

// Merge folds all samples of other into b.
func (b *ByKey) Merge(other *ByKey) {
	if other == nil {
		return
	}
	for k, s := range other.m {
		for _, v := range s.vals {
			b.Add(k, v)
		}
	}
}

// Table renders the grouping as an aligned text table with mean/min/max
// per key; label names the key column, metric the value column.
func (b *ByKey) Table(label, metric string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %10s %10s %10s\n", label, "n", "mean "+metric, "min", "max")
	for _, k := range b.Keys() {
		s := b.m[k]
		fmt.Fprintf(&sb, "%-10d %8d %10.3f %10.3f %10.3f\n", k, s.Count(), s.Mean(), s.Min(), s.Max())
	}
	return sb.String()
}

// Scatter is a cloud of (x, y) points.
type Scatter struct {
	Xs, Ys []float64
}

// Add appends a point.
func (s *Scatter) Add(x, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// Len returns the number of points.
func (s *Scatter) Len() int { return len(s.Xs) }

// Merge appends all points of other.
func (s *Scatter) Merge(other *Scatter) {
	if other == nil {
		return
	}
	s.Xs = append(s.Xs, other.Xs...)
	s.Ys = append(s.Ys, other.Ys...)
}

// MeanYForX returns the mean y per distinct integer x.
func (s *Scatter) MeanYForX() *ByKey {
	b := NewByKey()
	for i := range s.Xs {
		b.Add(int(math.Round(s.Xs[i])), s.Ys[i])
	}
	return b
}
