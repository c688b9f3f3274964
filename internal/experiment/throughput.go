package experiment

import (
	"fmt"
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/radio"
	"teleadjust/internal/sink"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/workload"
)

// ThroughputOpts tunes a throughput study: a sweep of offered load
// against the sink command plane, one fresh network per load point.
type ThroughputOpts struct {
	LoadOpts
	// Mode selects the loop discipline: "closed" (fixed concurrency,
	// sweeps Concurrency) or "open" (Poisson arrivals, sweeps Rates).
	Mode string
	// Concurrency are the closed-loop widths to sweep; each width also
	// sets the scheduler's admission window, so the sweep measures how the
	// command plane scales with sink-side parallelism.
	Concurrency []int
}

// DefaultThroughputOpts returns a closed-loop sweep over 1..8-way
// concurrency with moderate per-point cost.
func DefaultThroughputOpts() ThroughputOpts {
	return ThroughputOpts{
		LoadOpts: LoadOpts{
			Warmup:    4 * time.Minute,
			Ops:       40,
			Dist:      "uniform",
			Window:    8,
			PerGroup:  1,
			GroupBits: 6,
			Retries:   1,
			MaxRun:    30 * time.Minute,
		},
		Mode:        "closed",
		Concurrency: []int{1, 2, 4, 8},
	}
}

// ThroughputPoint is one load point of the sweep.
type ThroughputPoint struct {
	// Label names the swept knob value ("conc=8" or "rate=0.50").
	Label string
	// Offered is the realized offered load (submitted operations per
	// second of workload phase); for closed loops it tracks goodput.
	Offered float64
	// Goodput is successfully completed operations per second.
	Goodput float64

	Ops        int
	OK         int
	Failed     int
	Unroutable int
	Rejected   int
	Expired    int
	Retries    int
	// Unresolved counts operations still pending when MaxRun cut the
	// point off (0 on a healthy run).
	Unresolved int

	// Latency is the end-to-end sink latency (enqueue → completion,
	// seconds) of successful operations; QueueWait is their admission
	// delay component.
	Latency   *stats.Series
	QueueWait *stats.Series
}

// ThroughputResult aggregates one throughput sweep.
type ThroughputResult struct {
	Proto    string
	Scenario string
	Mode     string
	Dist     string
	Points   []*ThroughputPoint
	// Events is the collected sink-layer telemetry (ThroughputOpts.Trace);
	// merged seed runs carry their replication index in Event.Run.
	Events []telemetry.Event
}

// throughputDist builds the destination distribution over the live
// non-sink nodes of a converged network.
func throughputDist(net *Net, kind string) (workload.Dist, error) {
	var nodes []radio.NodeID
	for i := range net.Stacks {
		id := radio.NodeID(i)
		if id == net.Sink || !net.Alive(id) {
			continue
		}
		nodes = append(nodes, id)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("experiment: no destinations for throughput workload")
	}
	switch kind {
	case "", "uniform":
		return workload.Uniform(nodes), nil
	case "depth":
		return workload.DepthWeighted(nodes, net.CTPHops), nil
	case "hotspot":
		// The hot set is the largest hop-1 subtree: group every node by
		// its ancestor adjacent to the sink (protocol-agnostic — the CTP
		// parent chain exists under every control protocol). Ties break
		// toward the lowest ancestor id for determinism.
		bySubtree := make(map[radio.NodeID][]radio.NodeID)
		for _, id := range nodes {
			if a, ok := net.hop1Ancestor(id); ok {
				bySubtree[a] = append(bySubtree[a], id)
			}
		}
		var hotRoot radio.NodeID
		best := -1
		for a, members := range bySubtree {
			if len(members) > best || (len(members) == best && a < hotRoot) {
				best = len(members)
				hotRoot = a
			}
		}
		return workload.Hotspot(nodes, bySubtree[hotRoot], 0.8), nil
	default:
		return nil, fmt.Errorf("experiment: unknown destination distribution %q", kind)
	}
}

// hop1Ancestor walks id's CTP parent chain to the node adjacent to the
// sink (id itself when it is hop 1); false on detachment or loops.
func (n *Net) hop1Ancestor(id radio.NodeID) (radio.NodeID, bool) {
	cur := id
	for hops := 0; hops <= len(n.Stacks); hops++ {
		p := n.Stacks[cur].Ctp.Parent()
		if p == n.Sink {
			return cur, true
		}
		if p == ctp.NoParent || int(p) >= len(n.Stacks) {
			return 0, false
		}
		cur = p
	}
	return 0, false
}

// points expands the swept knob of the options into load points.
func (o ThroughputOpts) points() ([]loadPoint, error) {
	var pts []loadPoint
	switch o.Mode {
	case "", "closed":
		if len(o.Concurrency) == 0 {
			return nil, fmt.Errorf("experiment: closed-loop throughput study with no concurrency levels")
		}
		for pi, c := range o.Concurrency {
			if c < 1 {
				return nil, fmt.Errorf("experiment: closed-loop concurrency %d, want >= 1", c)
			}
			pts = append(pts, o.point(pi, c))
		}
	case "open":
		if len(o.Rates) == 0 {
			return nil, fmt.Errorf("experiment: open-loop throughput study with no rates")
		}
		for pi := range o.Rates {
			pts = append(pts, o.point(pi, 0))
		}
	default:
		return nil, fmt.Errorf("experiment: unknown workload mode %q", o.Mode)
	}
	return pts, nil
}

// runSchedPoint drives a load point through a plain sink.Scheduler: a
// throughput study's point, and the service study's baseline.
func runSchedPoint(scn Scenario, proto Proto, lp loadPoint) (*ThroughputPoint, []telemetry.Event, error) {
	return runLoadPoint(scn, proto, lp, func(net *Net, cfg sink.Config) (commandPlane, *sink.Scheduler) {
		sched := sink.New(net.Eng, net.SinkCtrl(), cfg)
		return sched, sched
	})
}

// RunThroughputStudy sweeps offered load against the sink command plane:
// each load point builds a fresh network from the scenario, converges it,
// and drives Ops control operations through a sink.Scheduler with the
// configured workload generator. Deterministic per seed: the same seed
// yields byte-identical results under serial and parallel replication.
func RunThroughputStudy(scn Scenario, proto Proto, opts ThroughputOpts) (*ThroughputResult, error) {
	pts, err := opts.points()
	if err != nil {
		return nil, err
	}
	res := &ThroughputResult{
		Proto:    proto.String(),
		Scenario: scn.Name,
		Mode:     opts.Mode,
		Dist:     opts.Dist,
	}
	if res.Mode == "" {
		res.Mode = "closed"
	}
	if res.Dist == "" {
		res.Dist = "uniform"
	}
	for _, lp := range pts {
		pt, events, err := runSchedPoint(scn, proto, lp)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
		res.Events = append(res.Events, events...)
	}
	return res, nil
}

// mergeThroughputResults merges per-seed sweeps point by point in slice
// (seed) order (see mergePoints).
func mergeThroughputResults(results []*ThroughputResult) *ThroughputResult {
	if len(results) == 0 {
		return nil
	}
	pts := make([]*ThroughputPoint, len(results[0].Points))
	for i := range pts {
		pts[i] = mergePoints(results, func(r *ThroughputResult) *ThroughputPoint { return r.Points[i] })
	}
	merged := results[0]
	merged.Points = pts
	merged.Events = mergeEvents(results, func(r *ThroughputResult) []telemetry.Event { return r.Events })
	return merged
}
