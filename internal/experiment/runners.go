package experiment

import (
	"errors"
	"io"
	"sort"
	"time"

	"teleadjust/internal/obs"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// CodingResult aggregates the path-code experiments (Fig. 6a–d, Table II).
type CodingResult struct {
	Scenario string
	// CodeLenByHop groups path-code length (bits) by CTP hop count
	// (Fig. 6a, Table II).
	CodeLenByHop *stats.ByKey
	// ChildrenByHop groups per-node child counts by hop (Fig. 6b).
	ChildrenByHop *stats.ByKey
	// ConvergenceBeacons holds per-node beacon periods from the routing
	// found event to code assignment (Fig. 6c).
	ConvergenceBeacons *stats.Series
	// ReverseVsCTP scatters code-tree depth against CTP hop count
	// (Fig. 6d).
	ReverseVsCTP *stats.Scatter
	// HopRatio is mean(reverse hops)/mean(CTP hops) — the paper reports
	// 1.08.
	HopRatio float64
	// Converged is the fraction of non-sink nodes holding a code.
	Converged float64
}

// RunCodingStudy builds the scenario with TeleAdjusting, runs it for dur,
// and extracts the Fig-6/Table-II metrics.
func RunCodingStudy(scn Scenario, dur time.Duration) (*CodingResult, error) {
	// Record each node's routing-found time.
	var foundAt []time.Duration
	net, err := converge(scn, ProtoTeleAdjust, dur, func(net *Net) {
		foundAt = make([]time.Duration, net.Dep.Len())
		for i, st := range net.Stacks {
			foundAt[i] = -1
			st.Ctp.OnParentChange(func(old, new radio.NodeID) {
				if foundAt[i] < 0 {
					foundAt[i] = net.Eng.Now()
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}

	res := &CodingResult{
		Scenario:           scn.Name,
		CodeLenByHop:       stats.NewByKey(),
		ChildrenByHop:      stats.NewByKey(),
		ConvergenceBeacons: &stats.Series{},
		ReverseVsCTP:       &stats.Scatter{},
	}
	var revSum, ctpSum float64
	var withCode int
	for i := range net.Stacks {
		id := radio.NodeID(i)
		if id == net.Sink {
			continue
		}
		hops := net.CTPHops(id)
		te := net.Tele(id)
		code, ok := te.Code()
		if ok {
			withCode++
			if hops > 0 {
				res.CodeLenByHop.Add(hops, float64(code.Len()))
				res.ReverseVsCTP.Add(float64(hops), float64(te.Depth()))
				revSum += float64(te.Depth())
				ctpSum += float64(hops)
			}
			// Fig 6c measures per-node convergence: beacon periods from
			// when the node could start (it has a parent AND that parent
			// holds a code) to code assignment. Measuring from the node's
			// own routing-found alone would charge level k for the k−1
			// serial allocation delays above it.
			if at, has := te.CodeAssignedAt(); has && foundAt[i] >= 0 {
				start := foundAt[i]
				if el, hasEl := te.EligibleAt(); hasEl && el > start {
					start = el
				}
				if at >= start {
					beacons := float64(at-start) / float64(scn.Mac.WakeInterval)
					res.ConvergenceBeacons.Add(beacons)
				}
			}
		}
		if hops >= 0 {
			res.ChildrenByHop.Add(hops, float64(len(te.Children())))
		}
	}
	if ctpSum > 0 {
		res.HopRatio = revSum / ctpSum
	}
	res.Converged = float64(withCode) / float64(net.Dep.Len()-1)
	return res, nil
}

// ControlResult aggregates one control-plane run (Fig. 7–10, Table III).
type ControlResult struct {
	Proto    string
	Scenario string

	Sent      int
	Delivered int
	AckedOK   int
	Skipped   int // destinations without route/code at send time

	// PDRByHop groups delivery (1/0) by the destination's CTP hop count
	// (Fig. 7).
	PDRByHop *stats.ByKey
	// LatencyByHop groups one-way delivery latency (seconds) by hop
	// (Fig. 10).
	LatencyByHop *stats.ByKey
	// TxPerPacket is the network-wide logical transmissions per control
	// packet (Table III).
	TxPerPacket float64
	// AvgDutyCycle is the mean radio duty cycle over the control phase
	// (Fig. 9).
	AvgDutyCycle float64
	// ATHX scatters transmissions-travelled against the receiving node's
	// CTP hop count (Fig. 8).
	ATHX *stats.Scatter
	// Detail holds protocol-specific per-packet diagnostics (backtracks,
	// rescues, duplicate deliveries, DAO traffic, ...).
	Detail map[string]float64
	// Events is the collected telemetry stream of the control phase
	// (ControlOpts.Trace); merged seed runs carry their replication index
	// in Event.Run, appended in seed order.
	Events []telemetry.Event
	// Convergence is the streaming windowed aggregation of the run
	// (ControlOpts.Window): per-window per-layer rates plus the
	// depth-binned convergence probe. Merged seed runs sum windows in
	// seed order, keeping parallel replication byte-identical to serial.
	Convergence *obs.Report
}

// PDR returns the overall delivery ratio.
func (r *ControlResult) PDR() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
}

// ControlOpts tunes a control study.
type ControlOpts struct {
	// Warmup lets the tree, codes, routes and registries converge.
	Warmup time.Duration
	// Packets is the number of control packets to send.
	Packets int
	// Interval is the inter-packet interval (paper: one per minute).
	Interval time.Duration
	// Drain is extra time after the last packet for stragglers.
	Drain time.Duration
	// KillNodes, when positive, fails that many random non-sink nodes at
	// evenly spaced points of the control phase (the "network dynamics"
	// stressor). Killed nodes are never chosen as destinations afterward.
	KillNodes int
	// DataIPI, when positive, makes every non-sink node originate an
	// upward data packet at this inter-packet interval during the control
	// phase (the paper's concurrent collection traffic; its testbed used
	// a 10-minute IPI).
	DataIPI time.Duration
	// Trace collects the core-layer operation spans and run-layer delivery
	// events of the whole run into ControlResult.Events (deterministic,
	// seed-merge safe; JSONL-exportable via telemetry.WriteJSONL).
	Trace bool
	// Window, when positive, attaches a streaming windowed aggregator to
	// every replication's bus: the full event stream (all layers,
	// including the coding-milestone probe) folds online into
	// ControlResult.Convergence without retaining events — the
	// observability path for runs too long or too large to trace.
	Window time.Duration
	// Progress, when non-nil with Window set, receives one live status
	// line per closed window. Single-replication runs only: replications
	// on a worker pool would interleave their lines nondeterministically.
	Progress io.Writer
}

// DefaultControlOpts returns a scaled-down version of the paper's 3-hour
// runs that preserves the statistics.
func DefaultControlOpts() ControlOpts {
	return ControlOpts{
		Warmup:   4 * time.Minute,
		Packets:  60,
		Interval: 15 * time.Second,
		Drain:    time.Minute,
	}
}

// RunControlStudy runs one protocol on the scenario and reports the
// Fig 7–10 / Table III metrics. The runner is protocol-agnostic: any
// registered protocol key works, and all interaction goes through the
// protocol.ControlProtocol interface.
func RunControlStudy(scn Scenario, proto Proto, opts ControlOpts) (*ControlResult, error) {
	var collector *telemetry.Collector
	var agg *obs.Aggregator
	net, err := converge(scn, proto, opts.Warmup, func(net *Net) {
		if opts.Trace {
			collector = telemetry.NewCollector()
			net.Bus.Subscribe(collector, telemetry.LayerCore, telemetry.LayerRun)
		}
		if opts.Window > 0 {
			agg = obs.NewAggregator(net.Dep.Len(), opts.Window)
			if opts.Progress != nil {
				agg.OnWindow(obs.ProgressPrinter(opts.Progress, net.Dep.Len(), opts.Window))
			}
			agg.Attach(net.Bus)
		}
	})
	if err != nil {
		return nil, err
	}
	if opts.DataIPI > 0 {
		net.startDataTraffic(opts.DataIPI, scn.Seed)
	}

	res := &ControlResult{
		Proto:        proto.String(),
		Scenario:     scn.Name,
		PDRByHop:     stats.NewByKey(),
		LatencyByHop: stats.NewByKey(),
		ATHX:         &stats.Scatter{},
	}

	// Snapshot baselines after warmup. Radio on-time reads the registry's
	// per-node gauges (Fig 9 consumes the metrics plane).
	phaseStart := net.Eng.Now()
	onBase := make([]float64, net.Dep.Len())
	for i := range net.Stacks {
		onBase[i], _ = net.Metrics.Gauge(telemetry.LayerRadio, radio.NodeID(i), "on-time-s")
	}
	txBase := net.controlTx()

	type sent struct {
		at   time.Duration
		hops int
	}
	sentByUID := make(map[uint32]*sent)
	ackOK := 0
	ctrl := net.SinkCtrl()
	// The Fig-7/Fig-10 delivery bookkeeping consumes the unified telemetry
	// stream: probe's delivered hooks emit run-layer delivery events and
	// its delivery sink is their only consumer.
	deliveredAt, skipped, err := net.probe(probePlan{
		packets:  opts.Packets,
		churns:   opts.KillNodes,
		interval: opts.Interval,
		drain:    opts.Drain,
		destRNG:  sim.DeriveRNG(scn.Seed, 0xd057),
		churnRNG: sim.DeriveRNG(scn.Seed, 0x1c11),
		churn:    net.KillNode,
		send: func(dst radio.NodeID) {
			hops := net.CTPHops(dst)
			uid, err := ctrl.SendControl(dst, "adjust", func(r protocol.Result) {
				if r.OK {
					ackOK++
				}
			})
			switch {
			case err == nil:
				res.Sent++
				sentByUID[uid] = &sent{at: net.Eng.Now(), hops: hops}
			case errors.Is(err, protocol.ErrNoRoute):
				// The stored route evaporated: that is the protocol's
				// failure mode under dynamics (RPL's storing mode,
				// notably) and counts against its delivery ratio, like
				// any other undeliverable packet.
				res.Sent++
				res.Skipped++
				res.PDRByHop.Add(max(1, hops), 0)
			default:
				res.Skipped++
			}
		},
	})
	if err != nil {
		return nil, err
	}
	res.Skipped += skipped

	// Aggregate in ascending-UID order so the result is independent of map
	// iteration order (byte-identical reports across runs and runners).
	res.AckedOK = ackOK
	uids := make([]uint32, 0, len(sentByUID))
	for uid := range sentByUID {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	for _, uid := range uids {
		s := sentByUID[uid]
		at, ok := deliveredAt[uid]
		hop := max(1, s.hops)
		if ok {
			res.Delivered++
			res.PDRByHop.Add(hop, 1)
			res.LatencyByHop.Add(hop, (at - s.at).Seconds())
		} else {
			res.PDRByHop.Add(hop, 0)
		}
	}
	res.TxPerPacket = float64(net.controlTx()-txBase) / float64(max(1, res.Sent))
	res.Detail = net.detailPerPacket(res.Sent)
	phaseDur := (net.Eng.Now() - phaseStart).Seconds()
	var dutySum float64
	for i := range net.Stacks {
		on, _ := net.Metrics.Gauge(telemetry.LayerRadio, radio.NodeID(i), "on-time-s")
		dutySum += (on - onBase[i]) / phaseDur
	}
	res.AvgDutyCycle = dutySum / float64(len(net.Stacks))
	net.collectATHX(res.ATHX, phaseStart)
	if collector != nil {
		res.Events = collector.Events()
	}
	if agg != nil {
		res.Convergence = agg.Finalize(net.Eng.Now())
	}
	return res, nil
}

// mergeControlResults merges per-seed control results in slice order; the
// caller guarantees that order is the seed order regardless of which
// worker finished first, keeping the merge deterministic.
func mergeControlResults(results []*ControlResult) *ControlResult {
	if len(results) == 0 {
		return nil
	}
	merged := results[0]
	var txSum, dutySum float64
	var convs []*obs.Report
	for i, res := range results {
		txSum += res.TxPerPacket
		dutySum += res.AvgDutyCycle
		if res.Convergence != nil {
			convs = append(convs, res.Convergence)
		}
		if i == 0 {
			continue
		}
		merged.Sent += res.Sent
		merged.Delivered += res.Delivered
		merged.AckedOK += res.AckedOK
		merged.Skipped += res.Skipped
		merged.PDRByHop.Merge(res.PDRByHop)
		merged.LatencyByHop.Merge(res.LatencyByHop)
		merged.ATHX.Merge(res.ATHX)
		for k, v := range res.Detail {
			merged.Detail[k] += v
		}
	}
	n := float64(len(results))
	merged.TxPerPacket = txSum / n
	merged.AvgDutyCycle = dutySum / n
	merged.Events = mergeEvents(results, func(r *ControlResult) []telemetry.Event { return r.Events })
	merged.Convergence = obs.Merge(convs...)
	for k := range merged.Detail {
		merged.Detail[k] /= n
	}
	return merged
}

// mergeCodingResults merges per-seed coding results in slice order.
func mergeCodingResults(results []*CodingResult) *CodingResult {
	if len(results) == 0 {
		return nil
	}
	merged := results[0]
	var ratioSum, convSum float64
	for i, res := range results {
		ratioSum += res.HopRatio
		convSum += res.Converged
		if i == 0 {
			continue
		}
		merged.CodeLenByHop.Merge(res.CodeLenByHop)
		merged.ChildrenByHop.Merge(res.ChildrenByHop)
		merged.ConvergenceBeacons.Merge(res.ConvergenceBeacons)
		merged.ReverseVsCTP.Merge(res.ReverseVsCTP)
	}
	merged.HopRatio = ratioSum / float64(len(results))
	merged.Converged = convSum / float64(len(results))
	return merged
}
