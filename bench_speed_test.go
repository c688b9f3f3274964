package teleadjust

import (
	"sort"
	"strings"
	"testing"

	"teleadjust/internal/benchjson"
)

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
	var steps []string
	for name := range rec.Sections {
		if strings.HasPrefix(name, "step") {
			steps = append(steps, name)
		}
	}
	sort.Strings(steps)
	if len(steps) < 3 {
		t.Fatalf("BENCH_speed.json has %d step sections %v, want a baseline plus at least 2 optimization steps", len(steps), steps)
	}
	type recorded struct {
		step  string
		value float64
	}
	latest := map[string]recorded{}
	for i, step := range steps {
		values := rec.Sections[step].Values
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
			latest[metric] = recorded{step, cv}
			if !ok {
				continue
			}
			compared++
			limit := prev.value
			if strings.HasSuffix(metric, "_ns_per_op") {
				// 5% headroom: wall-clock metrics carry run-to-run noise
				// that alloc counts do not.
				limit *= 1.05
			}
			if cv > limit {
				t.Errorf("%s → %s: %s regressed %v → %v", prev.step, step, metric, prev.value, cv)
			}
		}
		if i > 0 && compared == 0 {
			t.Errorf("%s shares no gated metric with any earlier step; every step must be comparable", step)
		}
	}
}

// gatedSpeedMetric reports whether a BENCH_speed.json value is gated by
// TestBenchSpeedTrajectory.
func gatedSpeedMetric(metric string) bool {
	for _, suffix := range []string{"_ns_per_op", "_allocs_per_op", "_bytes_per_op"} {
		if strings.HasSuffix(metric, suffix) {
			return true
		}
	}
	return false
}
