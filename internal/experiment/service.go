package experiment

import (
	"fmt"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/sink"
	"teleadjust/internal/telemetry"
)

// ServiceOpts tunes a command-service study: an open-loop offered-load
// ramp driven twice per point — once through the plain scheduler (the
// open-loop throughput point) and once through the command service with
// prefix batching, the route cache, and backpressure on — so every row
// reports the service's win over the baseline at identical offered load.
//
// The scheduler knobs of LoadOpts apply to both runs. Buffered commands
// hold their scheduler slots, so batches can only grow to min(Window,
// MaxBatch) members — and to min(PerGroup, MaxBatch) when the members
// share one serialization group. The window timer still flushes whatever
// accumulated, so smaller limits shrink batches rather than stall them.
// Rates are normally a ramp ending past the baseline's saturation point.
type ServiceOpts struct {
	LoadOpts

	// Service knobs (the service run only).
	BatchWindow time.Duration
	BatchBits   int
	MaxBatch    int
	CacheTTL    time.Duration
	CacheCap    int
	QueueDepth  int
	HighWater   int
	Policy      string // "reject" or "delay"
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
		LoadOpts: LoadOpts{
			Warmup:    4 * time.Minute,
			Ops:       120,
			Rates:     []float64{0.5, 1.8},
			Dist:      "hotspot",
			Window:    16,
			PerGroup:  8,
			GroupBits: 6,
			Retries:   1,
			MaxRun:    30 * time.Minute,
		},
		BatchWindow: 500 * time.Millisecond,
		BatchBits:   3,
		MaxBatch:    16,
		CacheTTL:    5 * time.Minute,
		CacheCap:    256,
		QueueDepth:  128,
		HighWater:   6,
		Policy:      "delay",
	}
}

// Transparent reports that every service feature is disabled: no batch
// window, no cache TTL, no admission bounds. A transparent study runs only
// the baseline, so its telemetry trace is byte-identical to `-study
// throughput -workload open` over the same seed, rates, and scheduler
// knobs.
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

// ServicePoint is one offered-load point: the baseline and service runs
// at the same rate. Base is the open-loop throughput point; Svc is the
// service run's tally, where Rejected counts shed submissions (Base
// itself when the study is transparent).
type ServicePoint struct {
	// Label names the swept rate ("rate=2.00").
	Label     string
	Base, Svc *ThroughputPoint

	// Delayed counts the service's admission-gate deferrals; Batches and
	// BatchedCmds mirror the batcher counters, CacheHits and CacheMisses
	// the route-cache lookups.
	Delayed     int
	Batches     int
	BatchedCmds int
	CacheHits   int
	CacheMisses int
}

// Speedup returns the goodput ratio service / baseline (0 when the
// baseline completed nothing).
func (p *ServicePoint) Speedup() float64 {
	if p.Base.Goodput == 0 {
		return 0
	}
	return p.Svc.Goodput / p.Base.Goodput
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
	// EventsBase is the baseline runs' sink-layer telemetry, byte-identical
	// to an open-loop throughput study over the same seed and rates.
	// EventsSvc is the service runs', carrying the svc.batch membership
	// spans.
	EventsBase []telemetry.Event
	EventsSvc  []telemetry.Event
}

// RunServiceStudy ramps offered load against the command service: each
// rate point runs the identical Poisson workload twice on fresh networks
// — plain-scheduler baseline, then full service — and reports goodput,
// shedding, batching, and cache effectiveness side by side. The point
// index picks the stream the throughput study derives for it, so the
// baseline is an exact open-loop throughput point. Deterministic per
// seed: the same seed yields byte-identical results under serial and
// parallel replication.
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
	for pi := range opts.Rates {
		lp := opts.point(pi, 0)
		base, baseEvents, err := runSchedPoint(scn, proto, lp)
		if err != nil {
			return nil, err
		}
		// With every feature disabled the service run would replay the
		// baseline: reuse it.
		pt := &ServicePoint{Label: lp.label, Base: base, Svc: base}
		svcEvents := baseEvents
		if !opts.Transparent() {
			// Disjoint ticket range from the baseline's.
			lp.ticketBase |= 1 << 19
			var svc *cmdsvc.Service
			pt.Svc, svcEvents, err = runLoadPoint(scn, proto, lp, func(net *Net, cfg sink.Config) (commandPlane, *sink.Scheduler) {
				svc = cmdsvc.New(net.Eng, net.SinkCtrl(), cfg, opts.serviceConfig())
				svc.AttachFaults(net.FaultInjector())
				return svc, svc.Scheduler()
			})
			if err != nil {
				return nil, err
			}
			batch, cache := svc.BatcherStats(), svc.CacheStats()
			pt.Delayed = int(svc.Tenants()[0].Delayed)
			pt.Batches, pt.BatchedCmds = int(batch.Batches), int(batch.BatchedCmds)
			pt.CacheHits, pt.CacheMisses = int(cache.Hits), int(cache.Misses)
		}
		res.Points = append(res.Points, pt)
		res.EventsBase = append(res.EventsBase, baseEvents...)
		res.EventsSvc = append(res.EventsSvc, svcEvents...)
	}
	return res, nil
}

// mergeServiceResults merges per-seed studies point by point in slice
// (seed) order: both runs through mergePoints, service counters summed.
func mergeServiceResults(results []*ServiceResult) *ServiceResult {
	if len(results) == 0 {
		return nil
	}
	pts := make([]*ServicePoint, len(results[0].Points))
	for i := range pts {
		m := &ServicePoint{
			Label: results[0].Points[i].Label,
			Base:  mergePoints(results, func(r *ServiceResult) *ThroughputPoint { return r.Points[i].Base }),
			Svc:   mergePoints(results, func(r *ServiceResult) *ThroughputPoint { return r.Points[i].Svc }),
		}
		for _, res := range results {
			pt := res.Points[i]
			m.Delayed += pt.Delayed
			m.Batches += pt.Batches
			m.BatchedCmds += pt.BatchedCmds
			m.CacheHits += pt.CacheHits
			m.CacheMisses += pt.CacheMisses
		}
		pts[i] = m
	}
	merged := results[0]
	merged.Points = pts
	merged.EventsBase = mergeEvents(results, func(r *ServiceResult) []telemetry.Event { return r.EventsBase })
	merged.EventsSvc = mergeEvents(results, func(r *ServiceResult) []telemetry.Event { return r.EventsSvc })
	return merged
}
