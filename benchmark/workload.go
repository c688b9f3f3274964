package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"teleadjust/internal/cmdsvc"
	"teleadjust/internal/core"
	"teleadjust/internal/experiment"
	"teleadjust/internal/noise"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/workload"
)

// spec is one benchmark workload: a scenario and protocol, a convergence
// phase, and an optional control-operation phase driven by one of the
// workload generators. Every replication of a pass builds a fresh network
// from its own seed, so a pass is a pure function of the base seed.
type spec struct {
	name     string
	scenario func(seed uint64) experiment.Scenario
	proto    experiment.Proto
	// reps is the number of replications in one pass, run one after another
	// on this goroutine.
	reps int
	// warmup is the convergence phase; for a workload without operations it
	// is the whole run.
	warmup time.Duration
	// ops is the number of control operations per replication (0 = none).
	ops int
	// open selects Poisson arrivals at rate ops/s; otherwise a closed loop
	// keeps conc operations outstanding.
	open bool
	rate float64
	conc int
	// hotspot sends 80% of operations into the largest hop-1 subtree.
	hotspot bool
	sched   sink.Config
	// svc, when set, puts the command service in front of the scheduler.
	svc *cmdsvc.Config
	// oracleDirty marks workloads on which the simulator already breaks
	// fault-oracle invariants (listed in README.md): their traced runs report
	// the violations, which fail a traced run on any other workload.
	oracleDirty bool
	// opPhase bounds the operation phase in simulated time. The phase ends
	// when every operation has resolved or opPhase has passed; operations
	// still open then count as unresolved.
	opPhase time.Duration
}

// setupBuilds is how many times each replication's network is built; the
// set-up time of the replication is their median, which keeps one slow
// build from moving setup_s. Each build starts right after a collection,
// so no build pays for garbage left by earlier work.
const setupBuilds = 9

func serviceConfig() *cmdsvc.Config {
	o := experiment.DefaultServiceOpts()
	return &cmdsvc.Config{
		Batch:      cmdsvc.BatcherConfig{Window: o.BatchWindow, Bits: o.BatchBits, MaxBatch: o.MaxBatch},
		Cache:      cmdsvc.CacheConfig{TTL: o.CacheTTL, Cap: o.CacheCap},
		QueueDepth: o.QueueDepth,
		HighWater:  o.HighWater,
		Policy:     cmdsvc.ShedPolicy(o.Policy),
	}
}

func serviceSched() sink.Config {
	o := experiment.DefaultServiceOpts()
	return sink.Config{Window: o.Window, PerGroup: o.PerGroup, GroupBits: o.GroupBits, Retries: o.Retries}
}

// specs are the four workloads, in the order BENCHMARK.json lists them.
// Sizes keep one pass near 10 s of wall time on a 2-core host, so a 25 s
// untraced run makes two or three passes and a host running at half speed
// still ends its single pass inside the budget; a traced run makes two.
// The refgrid operation phases are time-boxed because a fixed operation
// count made their length vary sixfold between seeds.
var specs = []*spec{
	// Deep multi-hop forwarding with no noise model, service or scale work:
	// the no-change control for noise, cmdsvc and scale optimisations.
	{
		name:     "line",
		scenario: experiment.Line,
		proto:    experiment.ProtoReTele,
		reps:     160,
		warmup:   3 * time.Minute,
		ops:      50,
		conc:     1,
		sched:    sink.Config{Window: 1, PerGroup: 1, GroupBits: 6, Retries: 0},
		opPhase:  30 * time.Minute,
	},
	// The plain scheduler pipelining independent subtrees, CPM noise on,
	// command service bypassed.
	{
		name:        "refgrid-sched",
		scenario:    experiment.ReferenceGrid,
		proto:       experiment.ProtoTeleAdjust,
		reps:        1,
		warmup:      90 * time.Second,
		ops:         64,
		conc:        8,
		sched:       sink.Config{Window: 8, PerGroup: 1, GroupBits: 6, Retries: 1},
		opPhase:     60 * time.Second,
		oracleDirty: true,
	},
	// The only workload where batching, the route cache and backpressure
	// work: arrival-driven overload with shared code prefixes.
	{
		name:        "refgrid-service",
		scenario:    experiment.ReferenceGrid,
		proto:       experiment.ProtoTeleAdjust,
		reps:        1,
		warmup:      90 * time.Second,
		ops:         64,
		open:        true,
		rate:        1.8,
		hotspot:     true,
		sched:       serviceSched(),
		svc:         serviceConfig(),
		opPhase:     60 * time.Second,
		oracleDirty: true,
	},
	// Scale-bound convergence of 1024 nodes; the operation layers idle.
	{
		name:        "grid1k-converge",
		scenario:    experiment.Grid1K,
		proto:       experiment.ProtoReTele,
		reps:        1,
		warmup:      6 * time.Second,
		oracleDirty: true,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// config maps a scenario onto a network config the way the experiment
// runners do.
func config(s experiment.Scenario, p experiment.Proto) experiment.Config {
	return experiment.Config{
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

// opRecord is one operation as the generator submitted it.
type opRecord struct {
	submitAt time.Duration
	out      sink.Outcome
	syncErr  error
	resolved int
}

// timedSubmitter stamps every operation at the generator's Submit call.
// The command service's delay policy parks a command before the scheduler
// enqueues it, so sink.Outcome.EnqueuedAt would leave the park out of the
// latency.
type timedSubmitter struct {
	eng   *sim.Engine
	inner workload.Submitter
	ops   []opRecord
}

func (s *timedSubmitter) Submit(dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error) {
	i := len(s.ops)
	s.ops = append(s.ops, opRecord{submitAt: s.eng.Now()})
	t, err := s.inner.Submit(dst, app, func(o sink.Outcome) {
		s.ops[i].out = o
		s.ops[i].resolved++
		if done != nil {
			done(o)
		}
	})
	if err != nil {
		s.ops[i].syncErr = err
		s.ops[i].resolved++
	}
	return t, err
}

// simResult holds everything a replication computes in simulated time. It
// is a pure function of the seed: two passes over the same seeds, traced or
// not, must produce equal values.
type simResult struct {
	nodeSimS float64 // Σ nodes × simulated seconds
	events   uint64

	attempted, ok, failed, unroutable, shed, rejected, expired, unresolved int
	lat, park, queue                                                       stats.Series
	goodSpanS                                                              float64 // Σ first submit → last outcome
	controlTx                                                              uint64
	dutySum                                                                float64 // Σ over replications of the mean duty fraction
	codeSum, reportSum                                                     float64

	radioTx, radioRxOK, radioRxBad  uint64
	macFrameTx, macAcked, macFailed uint64
	macSuppressed                   uint64
	ctpForwarded, ctpDropped        uint64
	coreSends, coreBacktracks       uint64
	coreRescues, coreDupDeliv       uint64
	coreFeedback, codeChanges       uint64
	sinkRetried, sinkExpired        uint64
	sinkRejected, sinkUnroutable    uint64
	svcDelayed, svcShed             uint64
	svcBatches, svcBatched          uint64
	svcCacheHits, svcCacheMisses    uint64
	reps                            int
}

// okOp links a successful operation to its protocol attempt.
type okOp struct {
	ticket   uint32
	uid      uint32
	submitAt time.Duration
	enqueued time.Duration
	admitted time.Duration
	doneAt   time.Duration
}

// hostResult holds the wall-clock side of a pass.
type hostResult struct {
	setupS, runS, warmupS, opsS float64
	allocB                      uint64
	heapLiveB                   uint64
	gcCycles                    uint32
	gcCPUS                      float64
	passS                       float64
	// speed is the host's speed during the pass relative to the reference
	// host (refclock.go); 1 when the pass ran no reference slices.
	speed float64
}

type passResult struct {
	sim  simResult
	host hostResult
}

// runPass runs every replication of one pass. A non-nil tracer is attached
// to each network before it starts. An untraced pass samples the host's
// speed as it goes; a traced one does not, so the CPU profile holds only
// the simulator and the tracing.
func runPass(w *spec, seed uint64, tr *tracer) (*passResult, error) {
	p := &passResult{}
	var clk *refClock
	if tr == nil {
		clk = &refClock{}
	}
	gcBefore := gcCPUSeconds()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i, s := range experiment.DeriveSeeds(seed, w.reps) {
		if err := runReplication(w, s, i, tr, clk, p); err != nil {
			return nil, fmt.Errorf("%s replication %d (seed %d): %w", w.name, i, s, err)
		}
	}
	p.host.passS = time.Since(start).Seconds()
	p.host.speed = clk.speed()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	p.host.gcCycles = msAfter.NumGC - msBefore.NumGC
	p.host.gcCPUS = gcCPUSeconds() - gcBefore
	return p, nil
}

func runReplication(w *spec, seed uint64, rep int, tr *tracer, clk *refClock, p *passResult) error {
	scn := w.scenario(seed)
	cfg := config(scn, w.proto)
	builds := make([]float64, setupBuilds)
	var net *experiment.Net
	for b := range builds {
		net = nil
		runtime.GC()
		t0 := time.Now()
		n, err := experiment.Build(cfg)
		builds[b] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		net = n
		clk.tick()
	}
	p.host.setupS += median(builds)
	if tr != nil {
		tr.attach(net, scn, w.proto, rep)
	}
	// The run starts on a clean heap: the last build's garbage is not
	// charged to run_s.
	runtime.GC()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	// Host times leave out the reference slices taken inside them.
	t0, ref0 := time.Now(), clk.spent()
	net.Start()
	if err := advance(net, w.warmup, clk); err != nil {
		return err
	}
	t1, ref1 := time.Now(), clk.spent()
	phaseStart := net.Eng.Now()
	onBase := onTimes(net)
	txBase := controlTx(net)
	coreBase := coreTotals(net)
	var recs []opRecord
	var sched *sink.Scheduler
	var svc *cmdsvc.Service
	if w.ops > 0 {
		var err error
		recs, sched, svc, err = runOps(w, net, seed, clk)
		if err != nil {
			return err
		}
	}
	t2, ref2 := time.Now(), clk.spent()
	runtime.ReadMemStats(&ms)
	p.host.allocB += ms.TotalAlloc - alloc0
	p.host.warmupS += t1.Sub(t0).Seconds() - (ref1 - ref0)
	p.host.opsS += t2.Sub(t1).Seconds() - (ref2 - ref1)
	p.host.runS += t2.Sub(t0).Seconds() - (ref2 - ref0)

	r := &p.sim
	r.reps++
	n := len(net.Stacks)
	r.nodeSimS += float64(n) * net.Eng.Now().Seconds()
	r.events += net.Eng.Processed()
	phase := (net.Eng.Now() - phaseStart).Seconds()
	if phase == 0 {
		// Without an operation phase, or with one that ended at once because
		// every operation failed on submission, the whole run is the phase.
		phase = net.Eng.Now().Seconds()
		clear(onBase)
	}
	var duty float64
	for i, on := range onTimes(net) {
		duty += (on - onBase[i]) / phase
	}
	r.dutySum += duty / float64(n)
	r.controlTx += controlTx(net) - txBase
	core := coreTotals(net)
	r.coreSends += core.ControlSends - coreBase.ControlSends
	r.coreBacktracks += core.Backtracks - coreBase.Backtracks
	r.coreRescues += core.Rescues - coreBase.Rescues
	r.coreDupDeliv += core.ControlDupDeliv - coreBase.ControlDupDeliv
	r.coreFeedback += core.FeedbackSends - coreBase.FeedbackSends
	r.codeChanges += core.CodeChanges
	r.codeSum += net.CodeCoverage()
	r.reportSum += reportFrac(net)
	for i, st := range net.Stacks {
		c := net.Medium.Radio(radio.NodeID(i)).Counters()
		r.radioTx += c.TxData + c.TxAck
		r.radioRxOK += c.RxDelivered
		r.radioRxBad += c.RxCorrupted
		m := st.Mac.Stats()
		r.macFrameTx += m.FrameTx
		r.macAcked += m.SendsAcked
		r.macFailed += m.SendsFailed
		r.macSuppressed += m.Suppressed
		c2 := st.Ctp.Stats()
		r.ctpForwarded += c2.Forwarded
		r.ctpDropped += c2.DroppedRetry + c2.DroppedNoTree + c2.DroppedTHL + c2.DroppedDup
	}
	if sched != nil {
		st := sched.Stats()
		r.sinkRetried += st.Retried
		r.sinkExpired += st.Expired
		r.sinkRejected += st.Rejected
		r.sinkUnroutable += st.Unroutable
	}
	if svc != nil {
		for _, tn := range svc.Tenants() {
			r.svcDelayed += tn.Delayed
			r.svcShed += tn.Shed
		}
		b := svc.BatcherStats()
		r.svcBatches += b.Batches
		r.svcBatched += b.BatchedCmds
		c := svc.CacheStats()
		r.svcCacheHits += c.Hits
		r.svcCacheMisses += c.Misses
	}
	oks, err := account(r, recs)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.finish(oks)
	}

	// The network's retained heap: live bytes with it reachable minus live
	// bytes once it is dropped, so the benchmark's own records do not count.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	withNet := ms.HeapAlloc
	runtime.KeepAlive(net)
	runtime.KeepAlive(sched)
	runtime.KeepAlive(svc)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if withNet > ms.HeapAlloc {
		p.host.heapLiveB = max(p.host.heapLiveB, withNet-ms.HeapAlloc)
	}
	return nil
}

// runOps drives the operation phase and returns every submitted operation.
func runOps(w *spec, net *experiment.Net, seed uint64, clk *refClock) ([]opRecord, *sink.Scheduler, *cmdsvc.Service, error) {
	dist := destinations(net, w.hotspot)
	te := net.SinkTele()
	var sched *sink.Scheduler
	var svc *cmdsvc.Service
	var inner workload.Submitter
	if w.svc != nil {
		svc = cmdsvc.New(net.Eng, net.SinkCtrl(), w.sched, *w.svc)
		svc.SetTelemetry(net.Metrics, net.Bus, net.Sink)
		if te != nil {
			svc.SetCoder(te.DstCode)
		}
		sched, inner = svc.Scheduler(), svc
	} else {
		sched = sink.New(net.Eng, net.SinkCtrl(), w.sched)
		sched.SetTelemetry(net.Metrics, net.Bus, net.Sink)
		if te != nil {
			sched.SetCoder(te.DstCode)
		}
		inner = sched
	}
	sub := &timedSubmitter{eng: net.Eng, inner: inner}
	rng := sim.DeriveRNG(seed, 0x3077)
	var gen workload.Generator
	if w.open {
		gen = workload.NewOpenLoop(net.Eng, sub, dist, rng, w.rate, w.ops)
	} else {
		gen = workload.NewClosedLoop(net.Eng, sub, dist, rng, w.conc, w.ops)
	}
	start := net.Eng.Now()
	gen.Start()
	for !gen.Done() && net.Eng.Now()-start < w.opPhase {
		if err := advance(net, min(10*time.Second, w.opPhase-(net.Eng.Now()-start)), clk); err != nil {
			return nil, nil, nil, err
		}
	}
	resolved := 0
	for _, r := range sub.ops {
		resolved += r.resolved
	}
	if got := len(gen.Outcomes()); got != resolved {
		return nil, nil, nil, fmt.Errorf("generator saw %d outcomes, submitter %d", got, resolved)
	}
	return sub.ops, sched, svc, nil
}

// account classifies every submitted operation exactly once and returns
// the successful ones.
func account(r *simResult, recs []opRecord) ([]okOp, error) {
	var first, last time.Duration = -1, 0
	var oks []okOp
	for i, rec := range recs {
		r.attempted++
		if first < 0 {
			first = rec.submitAt
		}
		switch {
		case rec.resolved > 1:
			return nil, fmt.Errorf("operation %d resolved %d times", i, rec.resolved)
		case rec.resolved == 0:
			r.unresolved++
			continue
		case rec.syncErr != nil:
			switch {
			case errors.Is(rec.syncErr, cmdsvc.ErrShed):
				r.shed++
			case errors.Is(rec.syncErr, sink.ErrQueueFull):
				r.rejected++
			default:
				r.unroutable++
			}
			last = max(last, rec.submitAt)
			continue
		}
		o := rec.out
		last = max(last, o.DoneAt)
		switch {
		case o.OK:
			r.ok++
			r.lat.Add((o.DoneAt - rec.submitAt).Seconds())
			r.park.Add((o.EnqueuedAt - rec.submitAt).Seconds())
			r.queue.Add(o.QueueWait().Seconds())
			oks = append(oks, okOp{ticket: o.Ticket, uid: o.Result.UID, submitAt: rec.submitAt,
				enqueued: o.EnqueuedAt, admitted: o.AdmittedAt, doneAt: o.DoneAt})
		case errors.Is(o.Err, sink.ErrBudget):
			r.expired++
		case errors.Is(o.Err, sink.ErrQueueFull):
			r.rejected++
		case o.Err != nil:
			r.unroutable++
		default:
			r.failed++
		}
	}
	sum := r.ok + r.failed + r.unroutable + r.shed + r.rejected + r.expired + r.unresolved
	if sum != r.attempted {
		return nil, fmt.Errorf("operation accounting: %d classified, %d attempted", sum, r.attempted)
	}
	if len(recs) > 0 {
		r.goodSpanS += (last - first).Seconds()
	}
	return oks, nil
}

// advance runs the network for d of simulated time in refChunk steps,
// giving the clock a chance to take a reference slice after each. Running
// in steps does not change the simulation: the engine dispatches the same
// events in the same order.
func advance(net *experiment.Net, d time.Duration, clk *refClock) error {
	end := net.Eng.Now() + d
	for net.Eng.Now() < end {
		if err := net.Run(min(refChunk, end-net.Eng.Now())); err != nil {
			return err
		}
		clk.tick()
	}
	return nil
}

// destinations builds the operation target distribution over the live
// non-sink nodes: uniform, or 80% onto the largest subtree hanging off the
// sink.
func destinations(net *experiment.Net, hotspot bool) workload.Dist {
	var nodes []radio.NodeID
	for i := range net.Stacks {
		if id := radio.NodeID(i); id != net.Sink && net.Alive(id) {
			nodes = append(nodes, id)
		}
	}
	if !hotspot {
		return workload.Uniform(nodes)
	}
	bySubtree := make(map[radio.NodeID][]radio.NodeID)
	for _, id := range nodes {
		if a, ok := hop1Ancestor(net, id); ok {
			bySubtree[a] = append(bySubtree[a], id)
		}
	}
	roots := make([]radio.NodeID, 0, len(bySubtree))
	for a := range bySubtree {
		roots = append(roots, a)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	var hot []radio.NodeID
	for _, a := range roots {
		if len(bySubtree[a]) > len(hot) {
			hot = bySubtree[a]
		}
	}
	return workload.Hotspot(nodes, hot, 0.8)
}

// hop1Ancestor walks id's CTP parent chain to the node next to the sink.
func hop1Ancestor(net *experiment.Net, id radio.NodeID) (radio.NodeID, bool) {
	cur := id
	for hops := 0; hops <= len(net.Stacks); hops++ {
		p := net.Stacks[cur].Ctp.Parent()
		if p == net.Sink {
			return cur, true
		}
		if int(p) >= len(net.Stacks) {
			return 0, false
		}
		cur = p
	}
	return 0, false
}

func onTimes(net *experiment.Net) []float64 {
	out := make([]float64, len(net.Stacks))
	for i := range out {
		out[i], _ = net.Metrics.Gauge(telemetry.LayerRadio, radio.NodeID(i), "on-time-s")
	}
	return out
}

func controlTx(net *experiment.Net) uint64 {
	var sum uint64
	for _, st := range net.Stacks {
		if st.Ctrl != nil {
			sum += st.Ctrl.ControlTx()
		}
	}
	return sum
}

// coreTotals sums the TeleAdjusting counters this benchmark reads over all
// nodes.
func coreTotals(net *experiment.Net) core.Stats {
	var c core.Stats
	for i := range net.Stacks {
		te := net.Tele(radio.NodeID(i))
		if te == nil {
			continue
		}
		s := te.Stats()
		c.ControlSends += s.ControlSends
		c.Backtracks += s.Backtracks
		c.Rescues += s.Rescues
		c.ControlDupDeliv += s.ControlDupDeliv
		c.FeedbackSends += s.FeedbackSends
		c.CodeChanges += s.CodeChanges
	}
	return c
}

// reportFrac is the share of non-sink nodes whose code the controller
// knows, i.e. the destinations it can route to.
func reportFrac(net *experiment.Net) float64 {
	te := net.SinkTele()
	if te == nil {
		return 0
	}
	known := 0
	for i := range net.Stacks {
		if id := radio.NodeID(i); id != net.Sink && te.KnowsCode(id) {
			known++
		}
	}
	return float64(known) / float64(len(net.Stacks)-1)
}

// setupParts splits one replication's set-up time: it times direct calls
// to the two expensive steps of experiment.Build, with the arguments Build
// passes them — CPM noise training and the radio medium — next to a whole
// Build, and returns the medians of setupBuilds rounds. The stacks share
// is the rest of the Build.
func setupParts(w *spec, seed uint64) (noiseS, mediumS, stacksS float64, err error) {
	cfg := config(w.scenario(seed), w.proto)
	nt := make([]float64, setupBuilds)
	md := make([]float64, setupBuilds)
	st := make([]float64, setupBuilds)
	for b := range nt {
		var model *noise.Model
		runtime.GC()
		t0 := time.Now()
		if cfg.NoiseTraceSeed != 0 {
			profile := noise.MeyerHeavy()
			if cfg.NoiseProfile != nil {
				profile = *cfg.NoiseProfile
			}
			n := cfg.NoiseTraceLen
			if n <= 0 {
				n = 60000
			}
			model = noise.Train(noise.GenerateTraceProfile(n, cfg.NoiseTraceSeed, profile))
		}
		t1 := time.Now()
		if _, err := radio.NewMedium(sim.NewEngine(), cfg.Dep, model, cfg.Radio, cfg.Seed); err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		if _, err := experiment.Build(cfg); err != nil {
			return 0, 0, 0, err
		}
		nt[b] = t1.Sub(t0).Seconds()
		md[b] = t2.Sub(t1).Seconds()
		st[b] = max(0, time.Since(t2).Seconds()-nt[b]-md[b])
	}
	return median(nt), median(md), median(st), nil
}

// gcCPUSeconds reads the runtime's cumulative GC CPU estimate.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// median is the nearest-rank median, the convention of the repo's reports.
func median(v []float64) float64 {
	var s stats.Series
	for _, x := range v {
		s.Add(x)
	}
	return s.P50()
}
