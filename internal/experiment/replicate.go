package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// Study is one seed-replicable experiment: Run executes it once on a
// scenario, Merge folds per-seed results — given in seed order — into one
// aggregate. A one-result Merge is the identity, so a one-seed Replicate
// reports exactly what a direct Run does.
type Study[R any] struct {
	Run   func(Scenario) (R, error)
	Merge func([]R) R
}

// ControlStudy replicates RunControlStudy (Fig 7–10, Table III).
func ControlStudy(proto Proto, opts ControlOpts) Study[*ControlResult] {
	return Study[*ControlResult]{
		Run:   func(scn Scenario) (*ControlResult, error) { return RunControlStudy(scn, proto, opts) },
		Merge: mergeControlResults,
	}
}

// CodingStudy replicates RunCodingStudy (Fig 6, Table II).
func CodingStudy(dur time.Duration) Study[*CodingResult] {
	return Study[*CodingResult]{
		Run:   func(scn Scenario) (*CodingResult, error) { return RunCodingStudy(scn, dur) },
		Merge: mergeCodingResults,
	}
}

// ThroughputStudy replicates RunThroughputStudy.
func ThroughputStudy(proto Proto, opts ThroughputOpts) Study[*ThroughputResult] {
	return Study[*ThroughputResult]{
		Run:   func(scn Scenario) (*ThroughputResult, error) { return RunThroughputStudy(scn, proto, opts) },
		Merge: mergeThroughputResults,
	}
}

// ServiceStudy replicates RunServiceStudy.
func ServiceStudy(proto Proto, opts ServiceOpts) Study[*ServiceResult] {
	return Study[*ServiceResult]{
		Run:   func(scn Scenario) (*ServiceResult, error) { return RunServiceStudy(scn, proto, opts) },
		Merge: mergeServiceResults,
	}
}

// CodingSchemesStudy replicates RunCodingSchemesStudy.
func CodingSchemesStudy(codecs []string, opts CodingSchemesOpts) Study[*CodingSchemesResult] {
	return Study[*CodingSchemesResult]{
		Run: func(scn Scenario) (*CodingSchemesResult, error) {
			return RunCodingSchemesStudy(scn, codecs, opts)
		},
		Merge: mergeCodingSchemesResults,
	}
}

// Replicate runs the study once per seed — one fully separate (sim.Engine,
// Net) pair each, built by build(seed) — on a pool of at most workers
// goroutines (<=0 means runtime.GOMAXPROCS(0)), and merges the results in
// seed order. Each replication is single-threaded and deterministic and
// shares no engine, medium or RNG stream with another, so the aggregate is
// byte-identical for every worker count. On failure the error of the
// lowest seed index is returned, keeping failures deterministic too.
func (s Study[R]) Replicate(build func(seed uint64) Scenario, seeds []uint64, workers int) (R, error) {
	var zero R
	if len(seeds) == 0 {
		return zero, fmt.Errorf("experiment: no seeds given")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]R, len(seeds))
	errs := make([]error, len(seeds))
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < min(workers, len(seeds)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = s.Run(build(seeds[i]))
			}
		}()
	}
	for i := range seeds {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return zero, err
		}
	}
	return s.Merge(results), nil
}

// DeriveSeeds expands a base seed into n decorrelated replication seeds
// using the engine's SplitMix64 stream derivation.
func DeriveSeeds(base uint64, n int) []uint64 {
	rng := sim.DeriveRNG(base, 0x5eed5)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return seeds
}

// mergeEvents concatenates the replications' event streams in seed order,
// tagging each event with its replication index, so a parallel
// replication's merged stream is byte-identical to the serial one.
func mergeEvents[R any](results []R, events func(R) []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for ri, res := range results {
		for _, ev := range events(res) {
			ev.Run = ri
			out = append(out, ev)
		}
	}
	return out
}
