package teleadjust

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"teleadjust/internal/benchjson"
)

// refSliceMetric is the BENCH_speed.json value that records how long one
// refSlice took on the capturing host, the host's speed at capture time.
const refSliceMetric = "ref_slice_ns_per_op"

// TestBenchSpeedTrajectory gates the committed optimization record: the
// ordered step sections of BENCH_speed.json must never regress. Each
// "stepN-*" section records the hot-path metrics after one optimization
// landed; a gated metric (ns/op, allocs/op or bytes/op) fails here when
// it is worse than at its most recent earlier occurrence, so a metric a
// step leaves out is still gated against its last recorded value and the
// trajectory in the record is monotone per metric.
func TestBenchSpeedTrajectory(t *testing.T) {
	rec, err := benchjson.Load("BENCH_speed.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range speedRegressions(rec) {
		t.Error(msg)
	}
}

// speedRegressions returns one message per regression in rec's step
// trajectory. ns/op carries 5 % headroom for run-to-run noise; when both
// a step and the metric's previous occurrence recorded ref_slice_ns_per_op,
// their ns/op are compared in units of the reference slice, so a host
// change does not read as a regression or hide one. allocs/op and
// bytes/op, which do not depend on the host, are gated exactly.
func speedRegressions(rec *benchjson.Envelope) []string {
	var steps []string
	num := map[string]int{}
	for name := range rec.Sections {
		if !strings.HasPrefix(name, "step") {
			continue
		}
		digits, _, _ := strings.Cut(strings.TrimPrefix(name, "step"), "-")
		n, err := strconv.Atoi(digits)
		if err != nil {
			return []string{fmt.Sprintf("BENCH_speed.json section %q is not named stepN-*", name)}
		}
		steps = append(steps, name)
		num[name] = n
	}
	// Steps run in number order, so step10 follows step9.
	sort.Slice(steps, func(i, j int) bool { return num[steps[i]] < num[steps[j]] })
	if len(steps) < 3 {
		return []string{fmt.Sprintf("BENCH_speed.json has %d step sections %v, want a baseline plus at least 2 optimization steps", len(steps), steps)}
	}
	type recorded struct {
		step       string
		value, ref float64 // ref is 0 when the step timed no reference slice
	}
	var msgs []string
	latest := map[string]recorded{}
	for i, step := range steps {
		values := rec.Sections[step].Values
		ref := values[refSliceMetric]
		var metrics []string
		for metric := range values {
			if gatedSpeedMetric(metric) {
				metrics = append(metrics, metric)
			}
		}
		sort.Strings(metrics)
		compared := 0
		for _, metric := range metrics {
			cv := values[metric]
			prev, ok := latest[metric]
			latest[metric] = recorded{step, cv, ref}
			if !ok {
				continue
			}
			compared++
			cur, limit := cv, prev.value
			if strings.HasSuffix(metric, "_ns_per_op") {
				if ref > 0 && prev.ref > 0 {
					cur, limit = cv/ref, prev.value/prev.ref
				}
				// 5% headroom: wall-clock metrics carry run-to-run noise
				// that alloc counts do not.
				limit *= 1.05
			}
			if cur > limit {
				msgs = append(msgs, fmt.Sprintf("%s → %s: %s regressed %v → %v", prev.step, step, metric, prev.value, cv))
			}
		}
		if i > 0 && compared == 0 {
			msgs = append(msgs, fmt.Sprintf("%s shares no gated metric with any earlier step; every step must be comparable", step))
		}
	}
	return msgs
}

// gatedSpeedMetric reports whether a BENCH_speed.json value is gated by
// TestBenchSpeedTrajectory. The reference slice time is the host's
// speed, not a hot path, so it is not.
func gatedSpeedMetric(metric string) bool {
	if metric == refSliceMetric {
		return false
	}
	for _, suffix := range []string{"_ns_per_op", "_allocs_per_op", "_bytes_per_op"} {
		if strings.HasSuffix(metric, suffix) {
			return true
		}
	}
	return false
}

// TestSpeedRegressionsScaleByReference checks the gate's two ns/op rules
// on a synthetic record: raw times when a side lacks a reference, times
// in reference slices when both have one.
func TestSpeedRegressionsScaleByReference(t *testing.T) {
	record := func(steps ...map[string]float64) *benchjson.Envelope {
		rec := &benchjson.Envelope{Sections: map[string]benchjson.Section{}}
		for i, v := range steps {
			rec.Sections[fmt.Sprintf("step%d", i)] = benchjson.Section{Values: v}
		}
		return rec
	}
	base := map[string]float64{"x_ns_per_op": 100, "x_allocs_per_op": 0}
	refd := map[string]float64{"x_ns_per_op": 100, refSliceMetric: 1000}
	cases := []struct {
		name       string
		prev, last map[string]float64
		fails      bool
	}{
		{"raw within headroom", base, map[string]float64{"x_ns_per_op": 104}, false},
		{"raw regression", base, map[string]float64{"x_ns_per_op": 106}, true},
		{"slower host, one reference", base, map[string]float64{"x_ns_per_op": 150, refSliceMetric: 1500}, true},
		{"alloc regression", base, map[string]float64{"x_allocs_per_op": 1}, true},
		{"slower host, same scaled time", refd, map[string]float64{"x_ns_per_op": 150, refSliceMetric: 1500}, false},
		{"faster host, scaled regression", refd, map[string]float64{"x_ns_per_op": 90, refSliceMetric: 800}, true},
		{"reference drop alone is not gated", refd, map[string]float64{"x_allocs_per_op": 0, refSliceMetric: 5000}, false},
	}
	for _, tc := range cases {
		got := speedRegressions(record(base, tc.prev, tc.last))
		if (len(got) > 0) != tc.fails {
			t.Errorf("%s: regressions %q, want failure %v", tc.name, got, tc.fails)
		}
	}
	// Eleven steps, each a little faster: step10 is gated after step9,
	// not after step1 as a string sort would place it.
	var steps []map[string]float64
	for i := 0; i <= 10; i++ {
		steps = append(steps, map[string]float64{"x_ns_per_op": float64(200 - 10*i)})
	}
	if got := speedRegressions(record(steps...)); len(got) > 0 {
		t.Errorf("eleven improving steps: regressions %q", got)
	}
	steps[10]["x_ns_per_op"] = 200
	if got := speedRegressions(record(steps...)); len(got) != 1 {
		t.Errorf("step10 slower than step9: regressions %q, want one", got)
	}
}

// refSlice is one slice of fixed reference work: xorshift draws, a
// math.Exp and a replace-top on a 32 KB binary min-heap, the kinds of
// work the simulator's hot paths spend their time in. It touches no
// simulator code and allocates nothing, so its time measures the host,
// not the code under test. Every slice starts from the same heap and so
// does the same work.
func refSlice() {
	h := refHeap
	copy(h, refStart)
	x, acc := uint64(0x2545f4914f6cdd1d), 0.0
	for i := 0; i < 2048; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := h[0] + math.Exp(float64(x&1023)/4096)
		acc += h[0]
		j := 0
		for {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if v <= h[c] {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = v
	}
	refSink += acc
}

var (
	refStart = func() []float64 {
		h := make([]float64, 1<<12)
		for i := range h {
			h[i] = float64(i)
		}
		return h
	}()
	refHeap = make([]float64, len(refStart))
	refSink float64
)

// BenchmarkRefSlice times one reference slice. Each BENCH_speed.json
// step records its result as ref_slice_ns_per_op, captured alongside the
// step's other benchmarks, and TestBenchSpeedTrajectory compares ns/op in
// units of it.
func BenchmarkRefSlice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		refSlice()
	}
}
