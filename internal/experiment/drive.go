package experiment

import (
	"math/rand/v2"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
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
// stack reports its deliveries as run-layer events; probe returns the
// first arrival time per operation id and the number of packets that
// found no live destination (a fault plan may kill every non-sink node).
func (n *Net) probe(p probePlan) (deliveredAt map[uint32]time.Duration, skipped int, err error) {
	delivery := &deliverySink{at: make(map[uint32]time.Duration)}
	n.Bus.Subscribe(delivery, telemetry.LayerRun)
	for i, st := range n.Stacks {
		id := radio.NodeID(i)
		if id == n.Sink || st.Ctrl == nil {
			continue
		}
		st.Ctrl.SetDeliveredFn(func(uid uint32, hops uint8) {
			n.Bus.Emit(telemetry.Event{Layer: telemetry.LayerRun,
				Kind: telemetry.KindOpDelivered, Node: id, Op: uid, Hops: hops})
		})
	}
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

// loadPoint is one offered-load point of the throughput and service
// studies. pi indexes the point: it picks the point's workload stream.
// A closed point keeps conc operations outstanding; an open one submits
// on a Poisson process at rate.
type loadPoint struct {
	pi     int
	warmup time.Duration
	dist   string
	trace  bool
	sched  sink.Config
	closed bool
	conc   int
	rate   float64
	ops    int
	maxRun time.Duration
}

// loadRun is what a load point's workload phase leaves: the resolved
// operations, the phase's length and, under trace, the sink-layer events.
type loadRun struct {
	outcomes []sink.Outcome
	elapsed  time.Duration
	events   []telemetry.Event
}

// rates returns the realized offered load and the goodput of ok
// completions, per second of workload phase.
func (r *loadRun) rates(ok int) (offered, goodput float64) {
	if secs := r.elapsed.Seconds(); secs > 0 {
		return float64(len(r.outcomes)) / secs, float64(ok) / secs
	}
	return 0, 0
}

// runLoadPoint converges a fresh network, puts the command plane that
// newPlane builds over its sink, and drives the point's operations
// through it until they resolve or maxRun (default 30 min) of workload
// phase has passed. The phase ends when the last operation resolved.
func runLoadPoint(scn Scenario, proto Proto, lp loadPoint, newPlane func(*Net, sink.Config) commandPlane) (*loadRun, error) {
	var collector *telemetry.Collector
	net, err := converge(scn, proto, lp.warmup, func(net *Net) {
		if lp.trace {
			collector = telemetry.NewCollector()
			net.Bus.Subscribe(collector, telemetry.LayerSink)
		}
	})
	if err != nil {
		return nil, err
	}
	dist, err := throughputDist(net, lp.dist)
	if err != nil {
		return nil, err
	}
	plane := newPlane(net, lp.sched)
	plane.SetTelemetry(net.Metrics, net.Bus, net.Sink)
	if te := net.SinkTele(); te != nil {
		plane.SetCoder(te.DstCode)
	}

	// One decorrelated stream per load point, so adding a point never
	// perturbs the destinations of the others.
	rng := sim.DeriveRNG(scn.Seed, 0x3077+uint64(lp.pi))
	var gen workload.Generator
	if lp.closed {
		gen = workload.NewClosedLoop(net.Eng, plane, dist, rng, lp.conc, lp.ops)
	} else {
		gen = workload.NewOpenLoop(net.Eng, plane, dist, rng, lp.rate, lp.ops)
	}

	maxRun := lp.maxRun
	if maxRun <= 0 {
		maxRun = 30 * time.Minute
	}
	start := net.Eng.Now()
	gen.Start()
	for !gen.Done() && net.Eng.Now()-start < maxRun {
		chunk := min(30*time.Second, maxRun-(net.Eng.Now()-start))
		if err := net.Run(chunk); err != nil {
			return nil, err
		}
	}
	run := &loadRun{outcomes: gen.Outcomes(), elapsed: net.Eng.Now() - start}
	if gen.Done() && gen.FinishedAt() > start {
		run.elapsed = gen.FinishedAt() - start
	}
	if collector != nil {
		run.events = collector.Events()
	}
	return run, nil
}
