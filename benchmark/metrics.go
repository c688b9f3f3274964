package main

// metricDef names one reported number and its unit. endToEnd metrics come
// from untraced passes and are what an untraced run reports; the rest are
// the per-layer ledger a traced run reports.
type metricDef struct {
	name     string
	unit     string
	endToEnd bool
}

// catalogue lists every metric in report order. BENCHMARK.json must name
// the same metrics with the same units (the smoke test checks this).
var catalogue = []metricDef{
	{"setup_s", "s", true},
	{"frames_per_s", "frames/s", true},
	{"alloc_b_per_frame", "B/frame", true},
	{"heap_live_mb", "MB", true},
	{"run_s", "s", false},
	{"node_s_per_s", "node_s/s", false},
	{"events_per_s", "1/s", false},
	{"alloc_mb", "MB", false},
	{"alloc_b_per_node_s", "B/node_s", false},
	{"alloc_b_per_event", "B", false},
	{"duty_pct", "%", false},

	{"ok_ratio", "fraction", false},
	{"lat_p50_s", "sim_s", false},
	{"lat_p90_s", "sim_s", false},
	{"goodput_ops_s", "ops/sim_s", false},
	{"tx_per_op", "tx", false},
	{"code_frac", "fraction", false},
	{"report_frac", "fraction", false},

	{"sim.cpu_pct", "%", false},
	{"sim.events", "count", false},
	{"sim.self_ns_per_event", "ns", false},
	{"radio.cpu_pct", "%", false},
	{"radio.tx", "count", false},
	{"radio.rx_ok_ratio", "fraction", false},
	{"radio.self_ns_per_tx", "ns", false},
	{"noise.cpu_pct", "%", false},
	{"linkest.cpu_pct", "%", false},
	{"mac.cpu_pct", "%", false},
	{"mac.frame_tx", "count", false},
	{"mac.ack_ratio", "fraction", false},
	{"mac.suppressed", "count", false},
	{"ctp.cpu_pct", "%", false},
	{"ctp.forwarded", "count", false},
	{"ctp.dropped", "count", false},
	{"core.cpu_pct", "%", false},
	{"core.sends_per_op", "tx", false},
	{"core.backtracks_per_op", "count", false},
	{"core.rescues_per_op", "count", false},
	{"core.dup_deliv_per_op", "count", false},
	{"core.feedback_per_op", "count", false},
	{"coding.code_changes", "count", false},
	{"coding.reported", "count", false},
	{"coding.unroutable", "count", false},
	{"sink.cpu_pct", "%", false},
	{"sink.retried", "count", false},
	{"sink.expired", "count", false},
	{"sink.rejected", "count", false},
	{"cmdsvc.cpu_pct", "%", false},
	{"cmdsvc.delayed", "count", false},
	{"cmdsvc.shed", "count", false},
	{"cmdsvc.batches", "count", false},
	{"cmdsvc.mean_batch", "count", false},
	{"cmdsvc.cache_hit_ratio", "fraction", false},
	{"lat.park_p50_s", "sim_s", false},
	{"lat.queue_p50_s", "sim_s", false},
	{"lat.down_p50_s", "sim_s", false},
	{"lat.down_per_hop_p50_s", "sim_s", false},
	{"lat.ack_p50_s", "sim_s", false},
	{"runtime.cpu_pct", "%", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_cpu_s", "s", false},
	{"setup.noise_train_s", "s", false},
	{"setup.medium_s", "s", false},
	{"setup.stacks_s", "s", false},
	{"host.warmup_s", "s", false},
	{"host.ops_s", "s", false},
	{"host.speed", "ratio", false},
	{"telemetry.cpu_pct", "%", false},
	{"trace.overhead_pct", "%", false},
	{"oracle.violations", "count", false},
}

// outcomeMetrics are the simulated results of a pass. They depend only on
// the seed, so they must match between passes, traced or not.
func outcomeMetrics(r *simResult) map[string]float64 {
	m := map[string]float64{
		"duty_pct":    100 * r.dutySum / float64(r.reps),
		"code_frac":   r.codeSum / float64(r.reps),
		"report_frac": r.reportSum / float64(r.reps),
	}
	if r.attempted > 0 {
		m["ok_ratio"] = float64(r.ok) / float64(r.attempted)
		m["tx_per_op"] = float64(r.controlTx) / float64(r.attempted)
	}
	if r.ok > 0 {
		m["lat_p50_s"] = r.lat.P50()
		m["lat_p90_s"] = r.lat.Percentile(90)
		if r.goodSpanS > 0 {
			m["goodput_ops_s"] = float64(r.ok) / r.goodSpanS
		}
	}
	return fill(m, "ok_ratio", "tx_per_op", "lat_p50_s", "lat_p90_s", "goodput_ops_s")
}

// endToEndMetrics summarises the untraced passes of a run: host times are
// medians over the passes, simulated results come from the first pass
// (every pass has the same ones). setup_s and the per-second rates are
// scaled to the reference host's speed (refclock.go); run_s and the other
// host times are wall time as measured.
//
// Speed and allocation are gated per radio frame put on the air. Frames
// are a simulated result, so no change to how the simulator is written can
// move them, and they carry most of what a seed changes in the work: on
// refgrid the protocol's random timing makes one seed's network up to a
// fifth chattier per node·second than another's, which node_s_per_s
// reports as a speed difference and frames_per_s does not.
func endToEndMetrics(passes []*passResult) map[string]float64 {
	pick := func(f func(h *hostResult) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(&p.host)
		}
		return median(v)
	}
	refRunS := pick(func(h *hostResult) float64 { return h.runS * h.speed })
	m := outcomeMetrics(&passes[0].sim)
	m["setup_s"] = pick(func(h *hostResult) float64 { return h.setupS * h.speed })
	m["run_s"] = pick(func(h *hostResult) float64 { return h.runS })
	m["host.speed"] = pick(func(h *hostResult) float64 { return h.speed })
	frames := float64(passes[0].sim.radioTx)
	m["frames_per_s"] = frames / refRunS
	m["node_s_per_s"] = passes[0].sim.nodeSimS / refRunS
	m["events_per_s"] = float64(passes[0].sim.events) / refRunS
	allocB := pick(func(h *hostResult) float64 { return float64(h.allocB) })
	m["alloc_mb"] = allocB / 1e6
	m["alloc_b_per_frame"] = allocB / frames
	m["alloc_b_per_node_s"] = allocB / passes[0].sim.nodeSimS
	m["alloc_b_per_event"] = allocB / float64(passes[0].sim.events)
	m["heap_live_mb"] = pick(func(h *hostResult) float64 { return float64(h.heapLiveB) / 1e6 })
	return m
}

// layerMetrics builds the per-layer ledger, host totals included, from an
// untraced pass u (counts and host phases), the traced pass t over the
// same seeds (CPU profile, code reports, op milestones, oracle) and one
// replication's set-up split, scaled to the pass.
func layerMetrics(u, t *passResult, tr *tracer, cpu cpuLedger, noiseS, mediumS, stacksS float64) map[string]float64 {
	r := &u.sim
	m := endToEndMetrics([]*passResult{u})
	perOp := func(v uint64) float64 {
		if r.attempted == 0 {
			return 0
		}
		return float64(v) / float64(r.attempted)
	}
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	cpuNS := func(layer string) float64 { return float64(cpu.ns[layer]) }
	for _, l := range cpuLayers {
		m[l+".cpu_pct"] = cpu.share(l)
	}
	m["sim.events"] = float64(r.events)
	if r.events > 0 {
		m["sim.self_ns_per_event"] = cpuNS("sim") / float64(r.events)
	}
	m["radio.tx"] = float64(r.radioTx)
	m["radio.rx_ok_ratio"] = ratio(r.radioRxOK, r.radioRxBad)
	if r.radioTx > 0 {
		m["radio.self_ns_per_tx"] = cpuNS("radio") / float64(r.radioTx)
	}
	m["mac.frame_tx"] = float64(r.macFrameTx)
	m["mac.ack_ratio"] = ratio(r.macAcked, r.macFailed)
	m["mac.suppressed"] = float64(r.macSuppressed)
	m["ctp.forwarded"] = float64(r.ctpForwarded)
	m["ctp.dropped"] = float64(r.ctpDropped)
	m["core.sends_per_op"] = perOp(r.coreSends)
	m["core.backtracks_per_op"] = perOp(r.coreBacktracks)
	m["core.rescues_per_op"] = perOp(r.coreRescues)
	m["core.dup_deliv_per_op"] = perOp(r.coreDupDeliv)
	m["core.feedback_per_op"] = perOp(r.coreFeedback)
	m["coding.code_changes"] = float64(r.codeChanges)
	m["coding.reported"] = float64(tr.reported)
	m["coding.unroutable"] = float64(r.sinkUnroutable)
	m["sink.retried"] = float64(r.sinkRetried)
	m["sink.expired"] = float64(r.sinkExpired)
	m["sink.rejected"] = float64(r.sinkRejected)
	m["cmdsvc.delayed"] = float64(r.svcDelayed)
	m["cmdsvc.shed"] = float64(r.svcShed)
	m["cmdsvc.batches"] = float64(r.svcBatches)
	if r.svcBatches > 0 {
		m["cmdsvc.mean_batch"] = float64(r.svcBatched) / float64(r.svcBatches)
	}
	m["cmdsvc.cache_hit_ratio"] = ratio(r.svcCacheHits, r.svcCacheMisses)
	m["lat.park_p50_s"] = r.park.P50()
	m["lat.queue_p50_s"] = r.queue.P50()
	m["lat.down_p50_s"] = tr.down.P50()
	m["lat.down_per_hop_p50_s"] = tr.downPerHop.P50()
	m["lat.ack_p50_s"] = tr.ack.P50()
	m["runtime.gc_cycles"] = float64(u.host.gcCycles)
	m["runtime.gc_cpu_s"] = u.host.gcCPUS
	reps := float64(r.reps)
	m["setup.noise_train_s"] = reps * noiseS
	m["setup.medium_s"] = reps * mediumS
	m["setup.stacks_s"] = reps * stacksS
	m["host.warmup_s"] = u.host.warmupS
	m["host.ops_s"] = u.host.opsS
	m["telemetry.cpu_pct"] = cpu.tracingPct()
	if u.host.runS > 0 {
		m["trace.overhead_pct"] = 100 * (t.host.runS/u.host.runS - 1)
	}
	m["oracle.violations"] = float64(len(tr.violations))
	return fill(m, "sim.self_ns_per_event", "radio.self_ns_per_tx", "cmdsvc.mean_batch", "trace.overhead_pct")
}

// fill gives absent metrics the value 0, so every run reports the whole
// catalogue.
func fill(m map[string]float64, names ...string) map[string]float64 {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			m[n] = 0
		}
	}
	return m
}
