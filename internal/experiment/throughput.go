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
	// Warmup lets the tree, codes, and registries converge before the
	// workload starts.
	Warmup time.Duration
	// Ops is the number of control operations per load point.
	Ops int
	// Mode selects the loop discipline: "closed" (fixed concurrency,
	// sweeps Concurrency) or "open" (Poisson arrivals, sweeps Rates).
	Mode string
	// Concurrency are the closed-loop widths to sweep; each width also
	// sets the scheduler's admission window, so the sweep measures how the
	// command plane scales with sink-side parallelism.
	Concurrency []int
	// Rates are the open-loop offered rates (operations per second).
	Rates []float64
	// Dist selects the destination distribution: "uniform",
	// "hotspot" (bias 80% of operations onto the largest hop-1 subtree),
	// or "depth" (weight by CTP hop count).
	Dist string
	// Window is the open-loop admission window (closed mode derives the
	// window from the swept concurrency).
	Window int
	// PerGroup caps concurrent in-flight operations per shared-prefix
	// subtree group; GroupBits sets the prefix depth (see sink.GroupKey).
	PerGroup  int
	GroupBits int
	// Retries is the per-operation retry budget layered over protocol
	// recovery; OpBudget (optional) bounds an operation's total lifetime.
	Retries  int
	OpBudget time.Duration
	// MaxRun caps each load point's workload phase in simulated time, so
	// a collapsed network cannot hang the study.
	MaxRun time.Duration
	// Trace collects the sink-layer command-plane events of every load
	// point into ThroughputResult.Events (seed-merge safe).
	Trace bool
}

// DefaultThroughputOpts returns a closed-loop sweep over 1..8-way
// concurrency with moderate per-point cost.
func DefaultThroughputOpts() ThroughputOpts {
	return ThroughputOpts{
		Warmup:      4 * time.Minute,
		Ops:         40,
		Mode:        "closed",
		Concurrency: []int{1, 2, 4, 8},
		Dist:        "uniform",
		Window:      8,
		PerGroup:    1,
		GroupBits:   6,
		Retries:     1,
		MaxRun:      30 * time.Minute,
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

// points expands the swept knob of the options into load-point labels.
func (o ThroughputOpts) points() ([]string, error) {
	switch o.Mode {
	case "", "closed":
		if len(o.Concurrency) == 0 {
			return nil, fmt.Errorf("experiment: closed-loop throughput study with no concurrency levels")
		}
		labels := make([]string, len(o.Concurrency))
		for i, c := range o.Concurrency {
			labels[i] = fmt.Sprintf("conc=%d", c)
		}
		return labels, nil
	case "open":
		if len(o.Rates) == 0 {
			return nil, fmt.Errorf("experiment: open-loop throughput study with no rates")
		}
		labels := make([]string, len(o.Rates))
		for i, r := range o.Rates {
			labels[i] = fmt.Sprintf("rate=%.2f", r)
		}
		return labels, nil
	default:
		return nil, fmt.Errorf("experiment: unknown workload mode %q", o.Mode)
	}
}

// RunThroughputStudy sweeps offered load against the sink command plane:
// each load point builds a fresh network from the scenario, converges it,
// and drives Ops control operations through a sink.Scheduler with the
// configured workload generator. Deterministic per seed: the same seed
// yields byte-identical results under serial and parallel replication.
func RunThroughputStudy(scn Scenario, proto Proto, opts ThroughputOpts) (*ThroughputResult, error) {
	labels, err := opts.points()
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

	for pi, label := range labels {
		lp := loadPoint{
			pi:     pi,
			warmup: opts.Warmup,
			dist:   opts.Dist,
			trace:  opts.Trace,
			sched: sink.Config{
				Window:    opts.Window,
				PerGroup:  opts.PerGroup,
				GroupBits: opts.GroupBits,
				Retries:   opts.Retries,
				OpBudget:  opts.OpBudget,
				// Disjoint ticket ranges per load point keep the merged
				// telemetry spans of the sweep from colliding.
				TicketBase: uint32(pi) << 20,
			},
			ops:    opts.Ops,
			maxRun: opts.MaxRun,
		}
		if lp.closed = res.Mode == "closed"; lp.closed {
			// The swept knob: the admission window is the concurrency level.
			lp.conc = opts.Concurrency[pi]
			lp.sched.Window = lp.conc
		} else {
			lp.rate = opts.Rates[pi]
		}
		var sched *sink.Scheduler
		run, err := runLoadPoint(scn, proto, lp, func(net *Net, cfg sink.Config) commandPlane {
			sched = sink.New(net.Eng, net.SinkCtrl(), cfg)
			return sched
		})
		if err != nil {
			return nil, err
		}

		pt := &ThroughputPoint{
			Label:     label,
			Ops:       opts.Ops,
			Retries:   int(sched.Stats().Retried),
			Latency:   &stats.Series{},
			QueueWait: &stats.Series{},
		}
		for _, o := range run.outcomes {
			switch {
			case o.OK:
				pt.OK++
				pt.Latency.Add(o.Total().Seconds())
				pt.QueueWait.Add(o.QueueWait().Seconds())
			case o.Err == nil:
				pt.Failed++
			case o.Err == sink.ErrQueueFull:
				pt.Rejected++
			case o.Err == sink.ErrBudget:
				pt.Expired++
			default:
				pt.Unroutable++
			}
		}
		pt.Unresolved = opts.Ops - len(run.outcomes)
		pt.Offered, pt.Goodput = run.rates(pt.OK)
		res.Points = append(res.Points, pt)
		res.Events = append(res.Events, run.events...)
	}
	return res, nil
}

// mergeThroughputResults merges per-seed sweeps point-by-point in slice
// (seed) order: counters sum, sample series pool, and rates average.
func mergeThroughputResults(results []*ThroughputResult) *ThroughputResult {
	if len(results) == 0 {
		return nil
	}
	merged := results[0]
	for _, res := range results[1:] {
		for i, pt := range res.Points {
			m := merged.Points[i]
			m.Offered += pt.Offered
			m.Goodput += pt.Goodput
			m.Ops += pt.Ops
			m.OK += pt.OK
			m.Failed += pt.Failed
			m.Unroutable += pt.Unroutable
			m.Rejected += pt.Rejected
			m.Expired += pt.Expired
			m.Retries += pt.Retries
			m.Unresolved += pt.Unresolved
			m.Latency.Merge(pt.Latency)
			m.QueueWait.Merge(pt.QueueWait)
		}
	}
	n := float64(len(results))
	for _, m := range merged.Points {
		m.Offered /= n
		m.Goodput /= n
	}
	merged.Events = mergeEvents(results, func(r *ThroughputResult) []telemetry.Event { return r.Events })
	return merged
}
