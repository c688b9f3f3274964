package experiment

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/core"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/workload"
)

// The three drivers every study runner shares: converge builds and warms
// a network, probe paces unicast control probes through it, and
// runLoadPoint drives one offered-load point against the sink command
// plane. Each runner keeps only what is its own: the metrics it reads
// and how it classifies outcomes.

// converge builds the scenario's network under proto, lets attach
// subscribe the runner's own sinks and hooks, hands the network to the
// scenario's OnNetBuilt hook, then starts it and runs the warmup.
func converge(scn Scenario, proto Proto, warmup time.Duration, attach func(*Net)) (*Net, error) {
	net, err := Build(scn.config(proto))
	if err != nil {
		return nil, err
	}
	if attach != nil {
		attach(net)
	}
	if scn.OnNetBuilt != nil {
		scn.OnNetBuilt(net)
	}
	net.Start()
	if err := net.Run(warmup); err != nil {
		return nil, err
	}
	return net, nil
}

// probePlan is one paced unicast probe phase: packets sends interval
// apart, each to a live non-sink node drawn from destRNG, then drain for
// stragglers. churns times, at evenly spaced packets, churn is applied to
// a live non-sink node drawn from churnRNG. send issues the probe and
// classifies its outcome.
type probePlan struct {
	packets, churns   int
	interval, drain   time.Duration
	destRNG, churnRNG *rand.Rand
	churn             func(radio.NodeID)
	send              func(dst radio.NodeID)
}

// probe runs the plan on a converged network. Every non-sink control
// stack, including one rebooted mid-phase, reports its deliveries as
// run-layer events; probe returns the first arrival time per operation id
// and the number of packets that found no live destination (a fault plan
// may kill every non-sink node).
func (n *Net) probe(p probePlan) (deliveredAt map[uint32]time.Duration, skipped int, err error) {
	delivery := &deliverySink{at: make(map[uint32]time.Duration)}
	n.Bus.Subscribe(delivery, telemetry.LayerRun)
	n.reportDeliveries = true
	churnEvery := 0
	if p.churns > 0 {
		churnEvery = max(1, p.packets/(p.churns+1))
	}
	churned := 0
	for pk := 0; pk < p.packets; pk++ {
		if churnEvery > 0 && churned < p.churns && pk > 0 && pk%churnEvery == 0 {
			// Liveness is tracked by the network itself, so scripted
			// fault-plan crashes and reboots compose with this churn.
			for tries := 0; tries < 100; tries++ {
				v := radio.NodeID(p.churnRNG.IntN(n.Dep.Len()))
				if v != n.Sink && n.Alive(v) {
					churned++
					p.churn(v)
					break
				}
			}
		}
		dst := radio.BroadcastID
		for tries := 0; tries < 50*n.Dep.Len(); tries++ {
			v := radio.NodeID(p.destRNG.IntN(n.Dep.Len()))
			if v != n.Sink && n.Alive(v) {
				dst = v
				break
			}
		}
		if dst == radio.BroadcastID {
			skipped++
		} else {
			p.send(dst)
		}
		if err := n.Run(p.interval); err != nil {
			return nil, 0, err
		}
	}
	if err := n.Run(p.drain); err != nil {
		return nil, 0, err
	}
	return delivery.at, skipped, nil
}

// deliverySink indexes run-layer delivery events by operation id: the
// first arrival per op is the Fig-10 one-way latency sample.
type deliverySink struct {
	at map[uint32]time.Duration
}

func (s *deliverySink) Consume(ev telemetry.Event) {
	if ev.Kind != telemetry.KindOpDelivered {
		return
	}
	if _, ok := s.at[ev.Op]; !ok {
		s.at[ev.Op] = ev.At
	}
}

// commandPlane is what a load point drives: the sink scheduler, or the
// command service over it.
type commandPlane interface {
	workload.Submitter
	SetTelemetry(*telemetry.Registry, *telemetry.Bus, radio.NodeID)
	SetCoder(func(radio.NodeID) (core.PathCode, bool))
}

// LoadOpts are the knobs the throughput and service studies share: an
// offered-load sweep against the sink command plane, one fresh network
// per load point.
type LoadOpts struct {
	// Warmup lets the tree, codes, and registries converge before the
	// workload starts.
	Warmup time.Duration
	// Ops is the number of control operations per load point.
	Ops int
	// Rates are the open-loop offered rates (operations per second).
	Rates []float64
	// Dist selects the destination distribution: "uniform",
	// "hotspot" (bias 80% of operations onto the largest hop-1 subtree),
	// or "depth" (weight by CTP hop count).
	Dist string
	// Window is the open-loop admission window (a closed loop's window
	// is its swept concurrency).
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
	// point (seed-merge safe).
	Trace bool
}

// loadPoint is one offered-load point of a sweep. pi indexes the point:
// it picks the point's workload stream and, shifted, its ticket range.
// A closed point (conc > 0) keeps conc operations outstanding and admits
// as many; an open one submits on a Poisson process at Rates[pi].
type loadPoint struct {
	LoadOpts
	pi         int
	label      string
	conc       int
	ticketBase uint32
}

// point builds load point pi of the sweep (conc 0 = open loop). Disjoint
// ticket ranges per point keep the merged telemetry spans of a sweep
// from colliding.
func (o LoadOpts) point(pi, conc int) loadPoint {
	lp := loadPoint{LoadOpts: o, pi: pi, conc: conc, ticketBase: uint32(pi) << 20}
	if conc > 0 {
		lp.label = fmt.Sprintf("conc=%d", conc)
	} else {
		lp.label = fmt.Sprintf("rate=%.2f", o.Rates[pi])
	}
	return lp
}

// runLoadPoint converges a fresh network, puts the command plane that
// newPlane builds over its sink (handing back the scheduler it drives),
// and drives the point's operations through it until they resolve or
// MaxRun (default 30 min) of workload phase has passed. The phase ends
// when the last operation resolved. It returns the point's tally and,
// under Trace, the sink-layer events.
func runLoadPoint(scn Scenario, proto Proto, lp loadPoint, newPlane func(*Net, sink.Config) (commandPlane, *sink.Scheduler)) (*ThroughputPoint, []telemetry.Event, error) {
	var collector *telemetry.Collector
	net, err := converge(scn, proto, lp.Warmup, func(net *Net) {
		if lp.Trace {
			collector = telemetry.NewCollector()
			net.Bus.Subscribe(collector, telemetry.LayerSink)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	dist, err := throughputDist(net, lp.Dist)
	if err != nil {
		return nil, nil, err
	}
	cfg := sink.Config{Window: lp.Window, PerGroup: lp.PerGroup, GroupBits: lp.GroupBits,
		Retries: lp.Retries, OpBudget: lp.OpBudget, TicketBase: lp.ticketBase}
	if lp.conc > 0 {
		cfg.Window = lp.conc
	}
	plane, sched := newPlane(net, cfg)
	plane.SetTelemetry(net.Metrics, net.Bus, net.Sink)
	if te := net.SinkTele(); te != nil {
		plane.SetCoder(te.DstCode)
	}

	// One decorrelated stream per load point, so adding a point never
	// perturbs the destinations of the others.
	rng := sim.DeriveRNG(scn.Seed, 0x3077+uint64(lp.pi))
	var gen workload.Generator
	if lp.conc > 0 {
		gen = workload.NewClosedLoop(net.Eng, plane, dist, rng, lp.conc, lp.Ops)
	} else {
		gen = workload.NewOpenLoop(net.Eng, plane, dist, rng, lp.Rates[lp.pi], lp.Ops)
	}

	maxRun := lp.MaxRun
	if maxRun <= 0 {
		maxRun = 30 * time.Minute
	}
	start := net.Eng.Now()
	gen.Start()
	for !gen.Done() && net.Eng.Now()-start < maxRun {
		chunk := min(30*time.Second, maxRun-(net.Eng.Now()-start))
		if err := net.Run(chunk); err != nil {
			return nil, nil, err
		}
	}
	elapsed := net.Eng.Now() - start
	if gen.Done() && gen.FinishedAt() > start {
		elapsed = gen.FinishedAt() - start
	}

	outcomes := gen.Outcomes()
	pt := &ThroughputPoint{
		Label:      lp.label,
		Ops:        lp.Ops,
		Retries:    int(sched.Stats().Retried),
		Unresolved: lp.Ops - len(outcomes),
		Latency:    &stats.Series{},
		QueueWait:  &stats.Series{},
	}
	for _, o := range outcomes {
		switch {
		case o.OK:
			pt.OK++
			pt.Latency.Add(o.Total().Seconds())
			pt.QueueWait.Add(o.QueueWait().Seconds())
		case o.Err == nil:
			pt.Failed++
		case errors.Is(o.Err, sink.ErrQueueFull) || errors.Is(o.Err, cmdsvc.ErrShed):
			pt.Rejected++
		case errors.Is(o.Err, sink.ErrBudget):
			pt.Expired++
		default:
			pt.Unroutable++
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		pt.Offered = float64(len(outcomes)) / secs
		pt.Goodput = float64(pt.OK) / secs
	}
	var events []telemetry.Event
	if collector != nil {
		events = collector.Events()
	}
	return pt, events, nil
}

// mergePoints merges one load point across per-seed results, taken in
// slice (seed) order by at, into a fresh point: counters sum, sample
// series pool, and rates average.
func mergePoints[R any](results []R, at func(R) *ThroughputPoint) *ThroughputPoint {
	m := &ThroughputPoint{Label: at(results[0]).Label, Latency: &stats.Series{}, QueueWait: &stats.Series{}}
	for _, res := range results {
		pt := at(res)
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
	n := float64(len(results))
	m.Offered /= n
	m.Goodput /= n
	return m
}
