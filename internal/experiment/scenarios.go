package experiment

import (
	"fmt"
	"strings"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/drip"
	"teleadjust/internal/fault"
	"teleadjust/internal/mac"
	"teleadjust/internal/noise"
	"teleadjust/internal/radio"
	"teleadjust/internal/rpl"
	"teleadjust/internal/topology"
)

// Scenario bundles a deployment with calibrated physical and protocol
// parameters matching one of the paper's evaluation settings.
type Scenario struct {
	Name         string
	Dep          *topology.Deployment
	Radio        radio.Params
	Mac          mac.Config
	Ctp          ctp.Config
	Tele         core.Config
	Drip         drip.Config
	Rpl          rpl.Config
	NoiseSeed    uint64
	NoiseProfile *noise.TraceProfile // nil = meyer-heavy
	WifiPowerDBm float64
	// Codec selects the tree-coding scheme by name for TeleAdjusting
	// variants (empty = the paper's Algorithm 1).
	Codec string
	// Fault is an optional fault script applied to every network built
	// from this scenario (shared read-only across replicated runs).
	Fault *fault.Plan
	Seed  uint64
	// OnNetBuilt, when set, is invoked with the assembled network before
	// Start — the hook point for medium traces and custom instrumentation.
	OnNetBuilt func(*Net)
}

// TightGrid is the 225-node 200 m × 200 m "high gain" simulation field.
// RefLoss 35 dB with exponent 4 gives a ~32 m deterministic radio range,
// so the 13 m grid spacing yields a dense multi-hop network of ~5 hops to
// the central sink.
func TightGrid(seed uint64) Scenario {
	params := radio.DefaultParams()
	params.RefLossDB = 35
	c := ctp.DefaultConfig()
	// Static links (no fading): help beacons safely accelerate the
	// construction frontier across the 225-node field, and prompt
	// cost-change advertising keeps the code tree tracking the ETX tree.
	c.HelpBeaconDelta = 6
	c.CostChangeDelta = 3
	return Scenario{
		Name:      "tight-grid",
		Dep:       topology.TightGrid(seed),
		Radio:     params,
		Mac:       mac.DefaultConfig(),
		Ctp:       c,
		Tele:      core.DefaultConfig(),
		Drip:      drip.DefaultConfig(),
		Rpl:       rpl.DefaultConfig(),
		NoiseSeed: seed ^ 0x77,
		Seed:      seed,
	}
}

// ReferenceGrid is the 100-node reference scenario for command-plane
// throughput studies: a 10×10 jittered grid over 130 m × 130 m with the
// sink at the centre, using the same "high gain" radio calibration as
// TightGrid (~32 m range), giving a dense 3–4-hop network that converges
// quickly enough for load sweeps across many fresh networks.
func ReferenceGrid(seed uint64) Scenario {
	params := radio.DefaultParams()
	params.RefLossDB = 35
	c := ctp.DefaultConfig()
	c.HelpBeaconDelta = 6
	c.CostChangeDelta = 3
	return Scenario{
		Name:      "ref-grid-100",
		Dep:       topology.Grid("ref-grid-100", 10, 10, 130, 130, true, topology.Point{X: 65, Y: 65}, seed),
		Radio:     params,
		Mac:       mac.DefaultConfig(),
		Ctp:       c,
		Tele:      core.DefaultConfig(),
		Drip:      drip.DefaultConfig(),
		Rpl:       rpl.DefaultConfig(),
		NoiseSeed: seed ^ 0x77,
		Seed:      seed,
	}
}

// Grid1K is the 1024-node large-field scenario: a 32×32 jittered grid
// over 420 m × 420 m — the same node density and high-gain radio as
// ReferenceGrid, scaled to ~12 hops across. It selects the per-link gain
// model (radio.GainPerLink), so channel state is built from a spatial
// index in O(n·neighbors) rather than an n×n sweep; the interference
// floor is raised to −106 dBm to keep audible neighborhoods at ~60 m
// (~65 nodes) instead of letting thousand-node fields couple end to end.
func Grid1K(seed uint64) Scenario {
	params := radio.DefaultParams()
	params.RefLossDB = 35
	params.InterferenceFloorDBm = -106
	params.GainModel = radio.GainPerLink
	c := ctp.DefaultConfig()
	c.HelpBeaconDelta = 6
	c.CostChangeDelta = 3
	return Scenario{
		Name:      "grid-1k",
		Dep:       topology.Grid("grid-1k", 32, 32, 420, 420, true, topology.Point{X: 210, Y: 210}, seed),
		Radio:     params,
		Mac:       mac.DefaultConfig(),
		Ctp:       c,
		Tele:      core.DefaultConfig(),
		Drip:      drip.DefaultConfig(),
		Rpl:       rpl.DefaultConfig(),
		NoiseSeed: seed ^ 0x77,
		Seed:      seed,
	}
}

// Line is the 8-node line with deterministic links (no shadowing): big
// enough to exercise multi-hop control, small enough that many
// replications fit in one benchmark iteration. The replication and
// telemetry benchmarks and the profiling harness all run it, so its
// parameters are part of the recorded BENCH_* baselines — change them
// and the trajectories restart.
func Line(seed uint64) Scenario {
	params := radio.DefaultParams()
	params.ShadowSigmaDB = 0
	s := Scenario{
		Name:  "bench-line",
		Dep:   topology.Line(8, 7),
		Radio: params,
		Mac:   mac.DefaultConfig(),
		Ctp:   ctp.DefaultConfig(),
		Tele:  core.DefaultConfig(),
		Drip:  drip.DefaultConfig(),
		Rpl:   rpl.DefaultConfig(),
		Seed:  seed,
	}
	s.Tele.AllocDelay = 2 * 512 * time.Millisecond
	s.TuneControlTimeouts(15 * time.Second)
	return s
}

// SparseLinear is the 225-node 60 m × 600 m "low gain" field: RefLoss
// 42 dB shrinks the range to ~21 m, stretching the network to tens of
// hops along the long axis.
func SparseLinear(seed uint64) Scenario {
	params := radio.DefaultParams()
	params.RefLossDB = 42
	c := ctp.DefaultConfig()
	// Tens of hops along the 600 m axis: the route-validity caps must sit
	// well above the legitimate path depth and cost.
	c.MaxPathETX = 200
	c.MaxTHL = 96
	c.HelpBeaconDelta = 6
	c.CostChangeDelta = 3
	// Aggressive datapath loop healing: the long strip's frontier loops
	// congest and starve the hop-counting detector, so any cross-sender
	// duplicate breaks the route.
	c.DupLoopTHLDelta = 0
	return Scenario{
		Name:      "sparse-linear",
		Dep:       topology.SparseLinear(seed),
		Radio:     params,
		Mac:       mac.DefaultConfig(),
		Ctp:       c,
		Tele:      core.DefaultConfig(),
		Drip:      drip.DefaultConfig(),
		Rpl:       rpl.DefaultConfig(),
		NoiseSeed: seed ^ 0x77,
		Seed:      seed,
	}
}

// Indoor is the 40-node testbed at CC2420 power level 2, calibrated to a
// ≤6-hop diameter; wifi selects the interfered "channel 19" condition.
func Indoor(seed uint64, wifi bool) Scenario {
	params := radio.DefaultParams()
	params.PathLossExponent = 3.0
	params.RefLossDB = 30
	// Slow per-link fading models the bursty testbed links (people and
	// doors moving in an indoor environment).
	params.FadingSigmaDB = 1.5
	params.FadingMinPeriod = 15 * time.Second
	params.FadingMaxPeriod = 60 * time.Second
	m := mac.DefaultConfig()
	m.TxPowerDBm = radio.PowerLevelDBm(2)
	quiet := noise.QuietChannel()
	s := Scenario{
		Name:         "indoor-26",
		Dep:          topology.IndoorTestbed(seed),
		Radio:        params,
		Mac:          m,
		Ctp:          ctp.DefaultConfig(),
		Tele:         core.DefaultConfig(),
		Drip:         drip.DefaultConfig(),
		Rpl:          rpl.DefaultConfig(),
		NoiseSeed:    seed ^ 0x99,
		NoiseProfile: &quiet,
		Seed:         seed,
	}
	if wifi {
		s.Name = "indoor-19"
		s.WifiPowerDBm = -58
	}
	return s
}

// NamedScenario is one -scenario name and the constructor it selects.
type NamedScenario struct {
	Name  string
	Build func(seed uint64) Scenario
}

// Scenarios is the table of named scenarios both CLIs select from, in
// the order their usage text lists them.
var Scenarios = []NamedScenario{
	{"tight", TightGrid},
	{"sparse", SparseLinear},
	{"indoor", func(seed uint64) Scenario { return Indoor(seed, false) }},
	{"indoor-wifi", func(seed uint64) Scenario { return Indoor(seed, true) }},
	{"refgrid", ReferenceGrid},
	{"grid1k", Grid1K},
	{"line", Line},
}

// ScenarioNames lists the Scenarios table's names in order.
func ScenarioNames() []string {
	names := make([]string, len(Scenarios))
	for i, s := range Scenarios {
		names[i] = s.Name
	}
	return names
}

// ScenarioNamed returns the constructor a Scenarios name selects.
func ScenarioNamed(name string) (func(seed uint64) Scenario, error) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s.Build, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q: %s", name, strings.Join(ScenarioNames(), ", "))
}

// config builds a network Config from the scenario with the given
// protocol key.
func (s Scenario) config(p Proto) Config {
	return Config{
		Dep:            s.Dep,
		Radio:          s.Radio,
		Mac:            s.Mac,
		Ctp:            s.Ctp,
		Tele:           s.Tele,
		Drip:           s.Drip,
		Rpl:            s.Rpl,
		Protocol:       p,
		Codec:          s.Codec,
		NoiseTraceSeed: s.NoiseSeed,
		NoiseProfile:   s.NoiseProfile,
		WifiPowerDBm:   s.WifiPowerDBm,
		Fault:          s.Fault,
		Seed:           s.Seed,
	}
}

// TuneControlTimeouts shortens controller timeouts so failed operations
// (and the Re-Tele rescue) resolve within one inter-packet interval of a
// control study.
func (s *Scenario) TuneControlTimeouts(d time.Duration) {
	s.Tele.ControlTimeout = d
	s.Drip.ControlTimeout = d
	s.Rpl.ControlTimeout = d
}
