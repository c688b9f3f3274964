// Command benchmark is the end-to-end and per-layer performance benchmark
// of the teleadjust simulator. It drives one of four canonical workloads
// through the simulator's public entry points, checks the outputs, prints
// every metric by name and unit, and ends with one JSON result line.
//
//	go run . -workload line -seed 1 -seconds 25 -trace 0
//
// An untraced run (-trace 0) repeats the workload's pass until -seconds of
// wall time are used and reports the end-to-end metrics: host times are
// medians over the passes, and every pass must give the same simulated
// results. A traced run (-trace 1) makes one untraced pass and one traced
// pass — CPU profile, one telemetry sink on every layer, the fault oracle —
// and reports the per-layer ledger; the two passes must agree on every
// simulated result. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"time"

	"teleadjust/internal/experiment"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's JSON result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "line", "workload: line, refgrid-sched, refgrid-service or grid1k-converge")
	seed := fs.Uint64("seed", 1, "base seed; replication seeds derive from it")
	seconds := fs.Float64("seconds", 25, "wall-clock budget of an untraced run")
	trace := fs.Int("trace", 0, "1 makes a traced run that reports the per-layer ledger")
	spans := fs.String("spans", "", "traced runs: write the op spans as JSONL into this directory")
	out := fs.String("out", "", "also write the result JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	w, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	var res *result
	var problems []string
	if *trace == 1 {
		res, problems, err = tracedRun(stdout, w, *seed, *spans)
	} else {
		res, problems, err = untracedRun(stdout, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "benchmark: check failed:", p)
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// untracedRun repeats the pass while another one, as long as the longest
// so far, fits in the budget. The first pass always runs.
func untracedRun(log io.Writer, w *spec, seed uint64, seconds float64) (*result, []string, error) {
	start := time.Now()
	var passes []*passResult
	var longest float64
	for {
		p, err := runPass(w, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		longest = max(longest, p.host.passS)
		if time.Since(start).Seconds()+longest > seconds {
			break
		}
	}
	var problems []string
	for i, p := range passes[1:] {
		if !reflect.DeepEqual(p.sim, passes[0].sim) {
			problems = append(problems, fmt.Sprintf("pass %d simulated results differ from pass 0 on the same seeds", i+1))
		}
	}
	m := endToEndMetrics(passes)
	fmt.Fprintf(log, "workload %s seed %d: %d untraced passes of %d replications, run_s", w.name, seed, len(passes), w.reps)
	for _, p := range passes {
		fmt.Fprintf(log, " %.3f", p.host.runS)
	}
	fmt.Fprintln(log)
	printOps(log, &passes[0].sim)
	return report(log, m, true, passes[0].sim.reps*len(passes)), append(problems, finite(m)...), nil
}

// tracedRun makes one untraced and one traced pass over the same seeds.
func tracedRun(log io.Writer, w *spec, seed uint64, spansDir string) (*result, []string, error) {
	noiseS, mediumS, stacksS, err := setupParts(w, experiment.DeriveSeeds(seed, 1)[0])
	if err != nil {
		return nil, nil, err
	}
	u, err := runPass(w, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var t *passResult
	prof, rusage, err := profiled(func() error {
		var err error
		t, err = runPass(w, seed, tr)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	cpu := foldProfile(prof)
	m := layerMetrics(u, t, tr, cpu, noiseS, mediumS, stacksS)
	var problems []string
	if !reflect.DeepEqual(u.sim, t.sim) {
		problems = append(problems, "traced pass simulated results differ from the untraced pass")
	}
	if n := len(tr.violations); n > 0 {
		byInvariant := map[string]int{}
		for _, v := range tr.violations {
			byInvariant[v.Invariant]++
		}
		fmt.Fprintf(log, "oracle: %d violations by invariant %v; first: %s\n", n, byInvariant, tr.violations[0])
		if !w.oracleDirty {
			problems = append(problems, fmt.Sprintf("%d oracle violations", n))
		}
	}
	if tr.unlinked > 0 {
		problems = append(problems, fmt.Sprintf("%d successful operations without issue, consume and ack events", tr.unlinked))
	}
	fmt.Fprintf(log, "workload %s seed %d: traced pass of %d replications, %.2f s sampled CPU (%.1f%% in named layers), %.2f s getrusage CPU\n",
		w.name, seed, w.reps, float64(cpu.totalNS)/1e9, 100-cpu.share(layerOther), rusage)
	printOps(log, &u.sim)
	if spansDir != "" {
		if err := tr.writeSpans(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return report(log, m, false, u.sim.reps+t.sim.reps), append(problems, finite(m)...), nil
}

func printOps(log io.Writer, r *simResult) {
	if r.attempted == 0 {
		return
	}
	fmt.Fprintf(log, "ops: %d attempted = %d ok + %d failed + %d unroutable + %d shed + %d rejected + %d expired + %d unresolved; latency over %d ok ops\n",
		r.attempted, r.ok, r.failed, r.unroutable, r.shed, r.rejected, r.expired, r.unresolved, r.ok)
}

// report prints the metrics as a table and keeps for the JSON line the
// end-to-end metrics of an untraced run, or the per-layer ledger of a
// traced one.
func report(log io.Writer, m map[string]float64, endToEnd bool, attempted int) *result {
	res := &result{Attempted: attempted, Metrics: map[string]metricValue{}}
	for _, d := range catalogue {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(log, "  %-26s %16.6g %s\n", d.name, v, d.unit)
		if d.endToEnd == endToEnd {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return res
}

// finite reports metrics that are not finite numbers.
func finite(m map[string]float64) []string {
	var p []string
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			p = append(p, fmt.Sprintf("metric %s is %v", name, v))
		}
	}
	return p
}
