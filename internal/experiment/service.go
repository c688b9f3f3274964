package experiment

import (
	"errors"
	"fmt"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/workload"
)

// ServiceOpts tunes a command-service study: an open-loop offered-load
// ramp driven twice per point — once through a transparent service
// (plain scheduler semantics) and once with prefix batching, the route
// cache, and backpressure on — so every row reports the service's win
// over the baseline at identical offered load.
type ServiceOpts struct {
	// Warmup lets the tree, codes, and registries converge before the
	// workload starts.
	Warmup time.Duration
	// Ops is the number of control operations per sub-run.
	Ops int
	// Rates are the open-loop offered rates (operations per second),
	// normally a ramp ending past the baseline's saturation point.
	Rates []float64
	// Dist selects the destination distribution (see throughputDist).
	Dist string

	// Scheduler knobs, applied identically to both sub-runs. Buffered
	// commands hold their scheduler slots, so batches can only grow to
	// min(Window, MaxBatch) members — and to min(PerGroup, MaxBatch)
	// when the members share one serialization group. The window timer
	// still flushes whatever accumulated, so smaller limits shrink
	// batches rather than stall them.
	Window    int
	PerGroup  int
	GroupBits int
	Retries   int
	OpBudget  time.Duration

	// Service knobs (the batching sub-run only).
	BatchWindow time.Duration
	BatchBits   int
	MaxBatch    int
	CacheTTL    time.Duration
	CacheCap    int
	QueueDepth  int
	HighWater   int
	Policy      string // "reject" or "delay"

	// MaxRun caps each sub-run's workload phase in simulated time.
	MaxRun time.Duration
	// Trace collects sink-layer telemetry: baseline sub-run events into
	// EventsBase (byte-comparable to an open-loop throughput study) and
	// service sub-run events — including svc.batch spans — into EventsSvc.
	Trace bool
}

// DefaultServiceOpts returns a two-point ramp with batching, caching, and
// backpressure sized for the reference scenarios. The backpressure
// defaults deliberately pace rather than refuse: a low high-water mark
// with the delay policy keeps the scheduler's queue shallow under
// overload, which is where the batcher and the route cache earn their
// keep (a congested field fails rescue-free sends and fragments
// batches; a paced one completes them). The batch window is short —
// admissions arrive in bursts under pacing, so half a second is enough
// to coalesce them, and buffered members hold scheduler slots for the
// whole window — and the 3-bit prefix trades deeper carriers for more
// batching opportunities.
func DefaultServiceOpts() ServiceOpts {
	return ServiceOpts{
		Warmup:      4 * time.Minute,
		Ops:         120,
		Rates:       []float64{0.5, 1.8},
		Dist:        "hotspot",
		Window:      16,
		PerGroup:    8,
		GroupBits:   6,
		Retries:     1,
		BatchWindow: 500 * time.Millisecond,
		BatchBits:   3,
		MaxBatch:    16,
		CacheTTL:    5 * time.Minute,
		CacheCap:    256,
		QueueDepth:  128,
		HighWater:   6,
		Policy:      "delay",
		MaxRun:      30 * time.Minute,
	}
}

// Transparent reports that every service feature is disabled: no batch
// window, no cache TTL, no admission bounds. A transparent study runs one
// sub-run per point on the throughput study's exact ticket range, so its
// telemetry trace is byte-identical to `-study throughput -workload open`
// over the same seed, rates, and scheduler knobs.
func (o ServiceOpts) Transparent() bool {
	return o.BatchWindow <= 0 && o.CacheTTL <= 0 && o.QueueDepth <= 0 && o.HighWater <= 0
}

// serviceConfig converts the service knobs into a cmdsvc.Config.
func (o ServiceOpts) serviceConfig() cmdsvc.Config {
	return cmdsvc.Config{
		Batch: cmdsvc.BatcherConfig{
			Window:   o.BatchWindow,
			Bits:     o.BatchBits,
			MaxBatch: o.MaxBatch,
		},
		Cache:      cmdsvc.CacheConfig{TTL: o.CacheTTL, Cap: o.CacheCap},
		QueueDepth: o.QueueDepth,
		HighWater:  o.HighWater,
		Policy:     cmdsvc.ShedPolicy(o.Policy),
	}
}

// ServicePoint is one offered-load point: paired baseline and service
// sub-runs at the same rate.
type ServicePoint struct {
	// Label names the swept rate ("rate=2.00").
	Label string
	// Offered is the realized offered load of the service sub-run;
	// OfferedBase the baseline's (they differ only through shed timing).
	Offered     float64
	OfferedBase float64
	// GoodputBase and GoodputSvc are completed operations per second.
	GoodputBase float64
	GoodputSvc  float64

	Ops            int
	OKBase         int
	OKSvc          int
	FailedBase     int
	FailedSvc      int
	UnresolvedBase int
	UnresolvedSvc  int

	// Shed and Delayed count admission-gate decisions in the service
	// sub-run (per-tenant detail lives in the telemetry trace).
	Shed    int
	Delayed int

	// Batches and BatchedCmds mirror the batcher counters; CacheHits and
	// CacheMisses the route-cache lookups.
	Batches     int
	BatchedCmds int
	CacheHits   int
	CacheMisses int

	// LatencyBase and LatencySvc are end-to-end sink latencies (seconds)
	// of successful operations.
	LatencyBase *stats.Series
	LatencySvc  *stats.Series
}

// Speedup returns the goodput ratio service / baseline (0 when the
// baseline completed nothing).
func (p *ServicePoint) Speedup() float64 {
	if p.GoodputBase == 0 {
		return 0
	}
	return p.GoodputSvc / p.GoodputBase
}

// MeanBatch returns the mean members per flushed carrier.
func (p *ServicePoint) MeanBatch() float64 {
	if p.Batches == 0 {
		return 0
	}
	return float64(p.BatchedCmds) / float64(p.Batches)
}

// CacheHitRate returns hits / (hits + misses).
func (p *ServicePoint) CacheHitRate() float64 {
	if p.CacheHits+p.CacheMisses == 0 {
		return 0
	}
	return float64(p.CacheHits) / float64(p.CacheHits+p.CacheMisses)
}

// ServiceResult aggregates one command-service study.
type ServiceResult struct {
	Proto    string
	Scenario string
	Dist     string
	Points   []*ServicePoint
	// EventsBase is the baseline sub-runs' sink-layer telemetry — with
	// every service feature off it is byte-comparable to an open-loop
	// throughput study over the same seed and rates. EventsSvc is the
	// service sub-runs', carrying the svc.batch membership spans.
	EventsBase []telemetry.Event
	EventsSvc  []telemetry.Event
}

// subRunMetrics is what one sub-run hands back to the point assembler.
type subRunMetrics struct {
	offered    float64
	goodput    float64
	ok         int
	failed     int
	shed       int
	delayed    int
	unresolved int
	latency    *stats.Series
	batch      cmdsvc.BatcherStats
	cache      cmdsvc.CacheStats
	events     []telemetry.Event
}

// runServicePoint drives one sub-run: fresh network, warmup, a command
// service over the sink scheduler, and an open-loop Poisson workload at
// the point's rate. svcCfg zero-valued gives the transparent baseline.
func runServicePoint(scn Scenario, proto Proto, opts ServiceOpts, pi int, svcCfg cmdsvc.Config, ticketBase uint32) (*subRunMetrics, error) {
	net, err := Build(scn.config(proto))
	if err != nil {
		return nil, err
	}
	var collector *telemetry.Collector
	if opts.Trace {
		collector = telemetry.NewCollector()
		net.Bus.Subscribe(collector, telemetry.LayerSink)
	}
	if scn.OnNetBuilt != nil {
		scn.OnNetBuilt(net)
	}
	net.Start()
	if err := net.Run(opts.Warmup); err != nil {
		return nil, err
	}

	dist, err := throughputDist(net, opts.Dist)
	if err != nil {
		return nil, err
	}

	schedCfg := sink.Config{
		Window:     opts.Window,
		PerGroup:   opts.PerGroup,
		GroupBits:  opts.GroupBits,
		Retries:    opts.Retries,
		OpBudget:   opts.OpBudget,
		TicketBase: ticketBase,
	}
	svc := cmdsvc.New(net.Eng, net.SinkCtrl(), schedCfg, svcCfg)
	svc.SetTelemetry(net.Metrics, net.Bus, net.Sink)
	if te := net.SinkTele(); te != nil {
		svc.SetCoder(te.DstCode)
	}
	svc.AttachFaults(net.FaultInjector())

	// The same stream the throughput study derives for this point index:
	// identical destinations and arrival gaps, so the baseline sub-run is
	// an exact open-loop replay.
	rng := sim.DeriveRNG(scn.Seed, 0x3077+uint64(pi))
	gen := workload.NewOpenLoop(net.Eng, svc, dist, rng, opts.Rates[pi], opts.Ops)

	maxRun := opts.MaxRun
	if maxRun <= 0 {
		maxRun = 30 * time.Minute
	}
	start := net.Eng.Now()
	gen.Start()
	for !gen.Done() && net.Eng.Now()-start < maxRun {
		chunk := 30 * time.Second
		if left := maxRun - (net.Eng.Now() - start); left < chunk {
			chunk = left
		}
		if err := net.Run(chunk); err != nil {
			return nil, err
		}
	}
	elapsed := net.Eng.Now() - start
	if gen.Done() && gen.FinishedAt() > start {
		elapsed = gen.FinishedAt() - start
	}

	m := &subRunMetrics{latency: &stats.Series{}}
	for _, o := range gen.Outcomes() {
		switch {
		case o.OK:
			m.ok++
			m.latency.Add(o.Total().Seconds())
		case errors.Is(o.Err, cmdsvc.ErrShed):
			m.shed++
		default:
			m.failed++
		}
	}
	m.unresolved = opts.Ops - len(gen.Outcomes())
	if secs := elapsed.Seconds(); secs > 0 {
		m.offered = float64(len(gen.Outcomes())) / secs
		m.goodput = float64(m.ok) / secs
	}
	for _, tn := range svc.Tenants() {
		m.delayed += int(tn.Delayed)
	}
	m.batch = svc.BatcherStats()
	m.cache = svc.CacheStats()
	if collector != nil {
		m.events = collector.Events()
	}
	return m, nil
}

// RunServiceStudy ramps offered load against the command service: each
// rate point runs the identical Poisson workload twice on fresh networks
// — transparent baseline, then full service — and reports goodput,
// shedding, batching, and cache effectiveness side by side.
// Deterministic per seed: the same seed yields byte-identical results
// under serial and parallel replication.
func RunServiceStudy(scn Scenario, proto Proto, opts ServiceOpts) (*ServiceResult, error) {
	if len(opts.Rates) == 0 {
		return nil, fmt.Errorf("experiment: service study with no rates")
	}
	res := &ServiceResult{
		Proto:    proto.String(),
		Scenario: scn.Name,
		Dist:     opts.Dist,
	}
	if res.Dist == "" {
		res.Dist = "uniform"
	}
	for pi, rate := range opts.Rates {
		// Baseline: zero service config, and the exact ticket range the
		// throughput study would use, so traces line up byte for byte.
		base, err := runServicePoint(scn, proto, opts, pi, cmdsvc.Config{}, uint32(pi)<<20)
		if err != nil {
			return nil, err
		}
		// Service: batching + cache + backpressure, disjoint ticket range.
		// With every feature disabled the baseline IS the service run —
		// reuse it so a transparent study stays a single exact replay.
		svc := base
		if !opts.Transparent() {
			svc, err = runServicePoint(scn, proto, opts, pi, opts.serviceConfig(), uint32(pi)<<20|1<<19)
			if err != nil {
				return nil, err
			}
		} else {
			// The point carries two latency series; give the reused
			// sub-run its own copy so a later merge cannot double-pool.
			cl := &stats.Series{}
			for _, v := range base.latency.Values() {
				cl.Add(v)
			}
			svc = &subRunMetrics{}
			*svc = *base
			svc.latency = cl
		}
		pt := &ServicePoint{
			Label:          fmt.Sprintf("rate=%.2f", rate),
			Ops:            opts.Ops,
			Offered:        svc.offered,
			OfferedBase:    base.offered,
			GoodputBase:    base.goodput,
			GoodputSvc:     svc.goodput,
			OKBase:         base.ok,
			OKSvc:          svc.ok,
			FailedBase:     base.failed,
			FailedSvc:      svc.failed,
			UnresolvedBase: base.unresolved,
			UnresolvedSvc:  svc.unresolved,
			Shed:           svc.shed,
			Delayed:        svc.delayed,
			Batches:        int(svc.batch.Batches),
			BatchedCmds:    int(svc.batch.BatchedCmds),
			CacheHits:      int(svc.cache.Hits),
			CacheMisses:    int(svc.cache.Misses),
			LatencyBase:    base.latency,
			LatencySvc:     svc.latency,
		}
		res.Points = append(res.Points, pt)
		res.EventsBase = append(res.EventsBase, base.events...)
		res.EventsSvc = append(res.EventsSvc, svc.events...)
	}
	return res, nil
}

// mergeServiceResults merges per-seed studies point-by-point in slice
// (seed) order: counters sum, sample series pool, and rates average.
func mergeServiceResults(results []*ServiceResult) *ServiceResult {
	if len(results) == 0 {
		return nil
	}
	merged := results[0]
	for _, res := range results[1:] {
		for i, pt := range res.Points {
			m := merged.Points[i]
			m.Offered += pt.Offered
			m.OfferedBase += pt.OfferedBase
			m.GoodputBase += pt.GoodputBase
			m.GoodputSvc += pt.GoodputSvc
			m.Ops += pt.Ops
			m.OKBase += pt.OKBase
			m.OKSvc += pt.OKSvc
			m.FailedBase += pt.FailedBase
			m.FailedSvc += pt.FailedSvc
			m.UnresolvedBase += pt.UnresolvedBase
			m.UnresolvedSvc += pt.UnresolvedSvc
			m.Shed += pt.Shed
			m.Delayed += pt.Delayed
			m.Batches += pt.Batches
			m.BatchedCmds += pt.BatchedCmds
			m.CacheHits += pt.CacheHits
			m.CacheMisses += pt.CacheMisses
			for _, v := range pt.LatencyBase.Values() {
				m.LatencyBase.Add(v)
			}
			for _, v := range pt.LatencySvc.Values() {
				m.LatencySvc.Add(v)
			}
		}
	}
	n := float64(len(results))
	for _, m := range merged.Points {
		m.Offered /= n
		m.OfferedBase /= n
		m.GoodputBase /= n
		m.GoodputSvc /= n
	}
	merged.EventsBase = mergeEvents(results, func(r *ServiceResult) []telemetry.Event { return r.EventsBase })
	merged.EventsSvc = mergeEvents(results, func(r *ServiceResult) []telemetry.Event { return r.EventsSvc })
	return merged
}
