//go:build !race

package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"teleadjust/internal/experiment"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, specNames)
	}
	declared := map[string]metricDef{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = metricDef{m.Name, m.Unit, true}
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = metricDef{m.Name, m.Unit, false}
	}
	if len(declared) != len(catalogue) {
		t.Errorf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(declared), len(catalogue))
	}
	for _, d := range catalogue {
		if got, ok := declared[d.name]; !ok || got != d {
			t.Errorf("metric %s: BENCHMARK.json has %+v, benchmark reports %+v", d.name, got, d)
		}
	}
}

// shrunk returns a workload cut down to smoke-test size.
func shrunk(t *testing.T, name string) *spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *s
	switch {
	case w.ops == 0:
		w.warmup = time.Second
	case w.name == "line":
		w.reps = 4
	default:
		w.reps, w.warmup, w.ops, w.opPhase = 1, 30*time.Second, 6, 15*time.Second
	}
	return &w
}

// TestSmoke runs every workload at smoke size, untraced and traced on the
// same seed, and checks that the two passes agree on every simulated
// result and that every catalogue metric comes out finite.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		w := shrunk(t, s.name)
		t.Run(w.name, func(t *testing.T) {
			u, err := runPass(w, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			var tp *passResult
			prof, _, err := profiled(func() error {
				var err error
				tp, err = runPass(w, 3, tr)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(u.sim, tp.sim) {
				t.Fatal("same-seed passes disagree on simulated results")
			}
			if !reflect.DeepEqual(outcomeMetrics(&u.sim), outcomeMetrics(&tp.sim)) {
				t.Fatal("same-seed passes disagree on simulated metrics")
			}
			noiseS, mediumS, stacksS, err := setupParts(w, experiment.DeriveSeeds(3, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			e2e := endToEndMetrics([]*passResult{u})
			layers := layerMetrics(u, tp, tr, foldProfile(prof), noiseS, mediumS, stacksS)
			for _, d := range catalogue {
				m := layers
				if d.endToEnd {
					m = e2e
				}
				v, ok := m[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v (present %v)", d.name, v, ok)
				}
			}
			if w.ops > 0 && u.sim.attempted == 0 {
				t.Error("no operations attempted")
			}
		})
	}
}

// TestInstantOpPhase covers an operation phase that ends as it starts: 20 s
// into a refgrid run the sink knows no codes yet, so every operation is
// refused on submission and the phase lasts no simulated time. The duty
// cycle then covers the whole run instead of dividing by zero.
func TestInstantOpPhase(t *testing.T) {
	s, err := specByName("refgrid-sched")
	if err != nil {
		t.Fatal(err)
	}
	w := *s
	w.warmup, w.ops, w.opPhase = 20*time.Second, 6, 10*time.Second
	p, err := runPass(&w, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := &p.sim; r.attempted == 0 || r.unroutable != r.attempted {
		t.Fatalf("%d of %d operations unroutable, want all", r.unroutable, r.attempted)
	}
	for name, v := range outcomeMetrics(&p.sim) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}
