package cmdsvc

import (
	"errors"
	"sort"

	"teleadjust/internal/core"
	"teleadjust/internal/fault"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/telemetry"
)

// Service errors.
var (
	// ErrShed reports that the admission gate refused the submission
	// (queue depth bound, or high-water mark under the reject policy).
	ErrShed = errors.New("cmdsvc: submission shed by backpressure")
	// ErrClosed reports a submission to a closed service.
	ErrClosed = errors.New("cmdsvc: service closed")
)

// ShedPolicy selects what happens to submissions above the high-water
// mark.
type ShedPolicy string

const (
	// PolicyReject sheds over-high-water submissions immediately.
	PolicyReject ShedPolicy = "reject"
	// PolicyDelay parks them in a deferred queue drained as completions
	// free capacity.
	PolicyDelay ShedPolicy = "delay"
)

// Config tunes a Service. The zero value is a fully transparent
// front-end: no batching, no cache, no backpressure.
type Config struct {
	// Batch configures the prefix batcher (Window 0 = pass-through).
	Batch BatcherConfig
	// Cache configures the route-freshness cache (TTL <= 0 = disabled).
	Cache CacheConfig
	// QueueDepth bounds the total backlog (scheduler queue + deferred
	// submissions); submissions beyond it are shed. 0 = unbounded.
	QueueDepth int
	// HighWater is the soft backlog threshold where Policy kicks in.
	// 0 = disabled.
	HighWater int
	// Policy selects reject or delay above HighWater (default reject).
	Policy ShedPolicy
}

// TenantStats are one tenant's lifetime counters.
type TenantStats struct {
	Name      string
	Submitted uint64 // accepted + shed + delayed
	Shed      uint64
	Delayed   uint64
	Completed uint64
	OK        uint64
}

// deferredCmd is one submission parked above the high-water mark.
type deferredCmd struct {
	tenant *TenantStats
	dst    radio.NodeID
	app    any
	done   func(sink.Outcome)
}

// Service is the persistent command front-end: tenants submit
// continuously, the admission gate sheds or delays past the backlog
// bounds, the prefix batcher coalesces what descends shared subtrees, and
// the route cache trims recovery work for fresh routes. It owns the sink
// scheduler it fronts.
type Service struct {
	eng     *sim.Engine
	sched   *sink.Scheduler
	batcher *Batcher
	cache   *RouteCache
	cfg     Config

	deferred []deferredCmd
	pumping  bool
	closed   bool

	tenants map[string]*TenantStats
	order   []string

	bus  *telemetry.Bus
	node radio.NodeID
}

// DefaultTenant is the tenant name Submit uses.
const DefaultTenant = "default"

// New builds a service dispatching through d (the sink protocol's control
// entry point) with the given scheduler and service configs. The
// scheduler's Window and PerGroup should be at least cfg.Batch.MaxBatch
// when batching is on, or buffered commands can never fill a batch.
func New(eng *sim.Engine, d sink.Dispatcher, schedCfg sink.Config, cfg Config) *Service {
	if cfg.Policy == "" {
		cfg.Policy = PolicyReject
	}
	s := &Service{
		eng:     eng,
		cfg:     cfg,
		batcher: NewBatcher(eng, d, cfg.Batch),
		tenants: make(map[string]*TenantStats),
	}
	if cfg.Cache.TTL > 0 {
		s.cache = NewRouteCache(eng.Now, cfg.Cache)
		s.batcher.SetCache(s.cache)
	}
	s.sched = sink.New(eng, s.batcher, schedCfg)
	return s
}

// SetCoder installs the destination → code resolver on both the scheduler
// (subtree grouping) and the batcher (prefix keys).
func (s *Service) SetCoder(fn func(radio.NodeID) (core.PathCode, bool)) {
	s.sched.SetCoder(fn)
	s.batcher.SetCoder(fn)
}

// SetTelemetry attaches the bus for scheduler and service events and
// subscribes the route cache (if any) to the invalidation layers. reg is
// ignored: the counters are read through Stats. The parameter stays
// because the benchmark module calls this signature.
func (s *Service) SetTelemetry(reg *telemetry.Registry, bus *telemetry.Bus, node radio.NodeID) {
	s.bus = bus
	s.node = node
	s.sched.SetTelemetry(reg, bus, node)
	s.batcher.SetTelemetry(bus, node)
	if s.cache != nil && bus != nil {
		bus.Subscribe(s.cache, telemetry.LayerCore, telemetry.LayerCoding)
	}
}

// AttachFaults chains the route cache onto the fault injector's epoch
// hook so scripted faults invalidate the routes they can move. No-op
// without a cache.
func (s *Service) AttachFaults(inj *fault.Injector) {
	if s.cache != nil && inj != nil {
		inj.OnEpoch(s.cache.OnFault)
	}
}

// Scheduler exposes the owned sink scheduler (stats, quiescence checks).
func (s *Service) Scheduler() *sink.Scheduler { return s.sched }

// BatcherStats returns the prefix batcher's counters.
func (s *Service) BatcherStats() BatcherStats { return s.batcher.Stats() }

// CacheStats returns the route cache's counters (zero value when the
// cache is disabled).
func (s *Service) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// Depth returns the admission backlog: queued plus deferred submissions
// (in-flight and batcher-buffered commands excluded — they hold window
// slots, not queue slots).
func (s *Service) Depth() int { return s.sched.QueueLen() + len(s.deferred) }

// DeferredLen returns the number of submissions parked by the delay
// policy.
func (s *Service) DeferredLen() int { return len(s.deferred) }

// Quiesced reports that nothing is queued, deferred, buffered, or in
// flight.
func (s *Service) Quiesced() bool {
	return s.sched.Quiesced() && len(s.deferred) == 0 && s.batcher.PendingLen() == 0
}

// Tenant is one named submission stream into the service.
type Tenant struct {
	svc   *Service
	stats *TenantStats
}

// Tenant returns (creating on first use) the named tenant's submission
// handle.
func (s *Service) Tenant(name string) *Tenant {
	st, ok := s.tenants[name]
	if !ok {
		st = &TenantStats{Name: name}
		s.tenants[name] = st
		s.order = append(s.order, name)
	}
	return &Tenant{svc: s, stats: st}
}

// Tenants returns per-tenant counter snapshots sorted by name.
func (s *Service) Tenants() []TenantStats {
	out := make([]TenantStats, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, *s.tenants[name])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Submit enqueues one command for the default tenant. See Tenant.Submit.
func (s *Service) Submit(dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error) {
	return s.Tenant(DefaultTenant).Submit(dst, app, done)
}

// SubmitBatch enqueues a set of commands for the default tenant,
// returning per-command tickets aligned with reqs and the first admission
// error (later commands are still attempted).
func (s *Service) SubmitBatch(dsts []radio.NodeID, app any, done func(sink.Outcome)) ([]uint32, error) {
	t := s.Tenant(DefaultTenant)
	tickets := make([]uint32, len(dsts))
	var firstErr error
	for i, dst := range dsts {
		tk, err := t.Submit(dst, app, done)
		tickets[i] = tk
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return tickets, firstErr
}

// Submit enqueues one command for this tenant and returns its scheduler
// ticket. done (optional) fires exactly once with the outcome. Above the
// backlog bounds the submission is shed (ErrShed) or — under the delay
// policy — parked with ticket 0 and admitted as completions free
// capacity. Submitting to a closed service returns ErrClosed.
func (t *Tenant) Submit(dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error) {
	return t.svc.submit(t.stats, dst, app, done)
}

// Done implements the generator-facing half of workload.Submitter for the
// tenant view; the Submit signature already matches.

func (s *Service) submit(tn *TenantStats, dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error) {
	if s.closed {
		return 0, ErrClosed
	}
	tn.Submitted++
	depth := s.Depth()
	if s.cfg.QueueDepth > 0 && depth >= s.cfg.QueueDepth {
		return 0, s.shed(tn, dst)
	}
	if s.cfg.HighWater > 0 && depth >= s.cfg.HighWater {
		if s.cfg.Policy == PolicyDelay {
			tn.Delayed++
			s.emit(telemetry.Event{Kind: telemetry.KindSvcDelay, Dst: dst, Note: tn.Name,
				Value: float64(depth)})
			s.deferred = append(s.deferred, deferredCmd{tenant: tn, dst: dst, app: app, done: done})
			return 0, nil
		}
		return 0, s.shed(tn, dst)
	}
	return s.dispatch(tn, dst, app, done)
}

func (s *Service) shed(tn *TenantStats, dst radio.NodeID) error {
	tn.Shed++
	s.emit(telemetry.Event{Kind: telemetry.KindSvcShed, Dst: dst, Note: tn.Name,
		Value: float64(s.Depth())})
	return ErrShed
}

func (s *Service) dispatch(tn *TenantStats, dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error) {
	return s.sched.Submit(dst, app, func(o sink.Outcome) {
		tn.Completed++
		if o.OK {
			tn.OK++
		}
		if s.cache != nil {
			if o.OK {
				s.cache.Confirm(o.Dst)
			} else {
				s.cache.InvalidateNode(o.Dst)
			}
		}
		if done != nil {
			done(o)
		}
		s.drainDeferred(false)
	})
}

// drainDeferred admits parked submissions while the scheduler backlog
// sits below the high-water mark (or unconditionally when forced by
// Drain/Close). Re-entrant completions fold into the outermost drain.
func (s *Service) drainDeferred(force bool) {
	if s.pumping {
		return
	}
	s.pumping = true
	defer func() { s.pumping = false }()
	for len(s.deferred) > 0 {
		if !force && s.cfg.HighWater > 0 && s.sched.QueueLen() >= s.cfg.HighWater {
			return
		}
		d := s.deferred[0]
		s.deferred = s.deferred[1:]
		s.dispatch(d.tenant, d.dst, d.app, d.done)
	}
}

// Drain pushes everything buffered out now: deferred submissions are
// admitted regardless of the high-water mark and open batch groups flush
// without waiting for their windows. In-flight operations still resolve
// through the engine as usual.
func (s *Service) Drain() {
	s.drainDeferred(true)
	s.batcher.Drain()
}

// Close drains the service and refuses subsequent submissions. Pending
// outcomes still fire as the protocol resolves them.
func (s *Service) Close() {
	s.closed = true
	s.Drain()
}

// emit publishes a sink-layer service event.
func (s *Service) emit(ev telemetry.Event) {
	if !s.bus.Wants(telemetry.LayerSink) {
		return
	}
	ev.Layer = telemetry.LayerSink
	ev.Node = s.node
	s.bus.Emit(ev)
}
