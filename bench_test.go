package teleadjust

// Macro-benchmarks regenerating the paper's evaluation, one per table and
// figure. They report the headline quantity of each experiment as a custom
// benchmark metric, so `go test -bench=.` doubles as a reproduction run:
//
//	BenchmarkFig6aCodeLength      — bits/hop on Tight-grid (Fig 6a)
//	BenchmarkFig6aSparseLinear    — bits/hop on Sparse-linear (Fig 6a)
//	BenchmarkFig6bChildren        — children/node (Fig 6b)
//	BenchmarkFig6cConvergence     — p90 beacons to code (Fig 6c)
//	BenchmarkFig6dHopRatio        — reverse/CTP hop ratio (Fig 6d)
//	BenchmarkTable2IndoorCodeLength — bits at max hop, indoor (Table II)
//	BenchmarkFig7PDR*             — PDR per protocol (Fig 7)
//	BenchmarkTable3TxCount*       — transmissions/packet (Table III)
//	BenchmarkFig8ATHX             — mean ATHX/CTP-hop ratio (Fig 8)
//	BenchmarkFig9DutyCycle*       — duty cycle per protocol (Fig 9)
//	BenchmarkFig10Latency*        — mean one-way latency (Fig 10)
//	BenchmarkAblation*            — design-choice ablations (strict-path,
//	                                reserve policy, wake interval,
//	                                feedback interception)
//	BenchmarkExtensionScopedDissemination — subtree multicast extension
//
// Durations are scaled down from the paper's 3–9 hour runs; EXPERIMENTS.md
// records a full-length pass.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/experiment"
)

// benchCodingTight runs (and caches) the Tight-grid coding study.
var benchCache = struct {
	tight, sparse, indoor *experiment.CodingResult
	control               map[string]*experiment.ControlResult
}{control: make(map[string]*experiment.ControlResult)}

func codingStudy(b *testing.B, which string) *experiment.CodingResult {
	b.Helper()
	var cached **experiment.CodingResult
	var scn experiment.Scenario
	var dur time.Duration
	switch which {
	case "tight":
		cached, scn, dur = &benchCache.tight, experiment.TightGrid(1), 8*time.Minute
	case "sparse":
		cached, scn, dur = &benchCache.sparse, experiment.SparseLinear(1), 25*time.Minute
	case "indoor":
		cached, scn, dur = &benchCache.indoor, experiment.Indoor(1, false), 8*time.Minute
	default:
		b.Fatalf("unknown study %q", which)
	}
	if *cached == nil {
		res, err := experiment.RunCodingStudy(scn, dur)
		if err != nil {
			b.Fatal(err)
		}
		*cached = res
	}
	return *cached
}

func controlStudy(b *testing.B, proto experiment.Proto, wifi bool) *experiment.ControlResult {
	b.Helper()
	key := proto.String()
	if wifi {
		key += "+wifi"
	}
	if res, ok := benchCache.control[key]; ok {
		return res
	}
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 6 * time.Minute
	opts.Packets = 25
	opts.Interval = 20 * time.Second
	build := func(seed uint64) experiment.Scenario {
		scn := experiment.Indoor(seed, wifi)
		scn.TuneControlTimeouts(18 * time.Second)
		return scn
	}
	res, err := experiment.ControlStudy(proto, opts).Replicate(build, []uint64{1, 2}, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchCache.control[key] = res
	return res
}

// avgOf returns the sample-weighted mean across a ByKey grouping.
func avgOf(res *experiment.ControlResult, latency bool) float64 {
	by := res.PDRByHop
	if latency {
		by = res.LatencyByHop
	}
	sum, n := 0.0, 0
	for _, k := range by.Keys() {
		s := by.Get(k)
		sum += s.Mean() * float64(s.Count())
		n += s.Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func BenchmarkFig6aCodeLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := codingStudy(b, "tight")
		keys := res.CodeLenByHop.Keys()
		if len(keys) == 0 {
			b.Fatal("no code length data")
		}
		last := keys[len(keys)-1]
		b.ReportMetric(res.CodeLenByHop.Get(last).Mean(), "bits@maxhop")
		b.ReportMetric(res.CodeLenByHop.Get(last).Mean()/float64(last), "bits/hop")
		b.ReportMetric(100*res.Converged, "%converged")
	}
}

func BenchmarkFig6aSparseLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := codingStudy(b, "sparse")
		keys := res.CodeLenByHop.Keys()
		if len(keys) == 0 {
			b.Fatal("no code length data")
		}
		last := keys[len(keys)-1]
		b.ReportMetric(res.CodeLenByHop.Get(last).Mean(), "bits@maxhop")
		b.ReportMetric(float64(last), "maxhop")
		b.ReportMetric(100*res.Converged, "%converged")
	}
}

func BenchmarkFig6bChildren(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := codingStudy(b, "tight")
		sum, n := 0.0, 0
		for _, k := range res.ChildrenByHop.Keys() {
			s := res.ChildrenByHop.Get(k)
			sum += s.Mean() * float64(s.Count())
			n += s.Count()
		}
		if n == 0 {
			b.Fatal("no children data")
		}
		b.ReportMetric(sum/float64(n), "children/node")
	}
}

func BenchmarkFig6cConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := codingStudy(b, "tight")
		b.ReportMetric(res.ConvergenceBeacons.Mean(), "beacons-mean")
		b.ReportMetric(res.ConvergenceBeacons.Percentile(90), "beacons-p90")
	}
}

func BenchmarkFig6dHopRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := codingStudy(b, "tight")
		b.ReportMetric(res.HopRatio, "rev/ctp-ratio")
	}
}

func BenchmarkTable2IndoorCodeLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := codingStudy(b, "indoor")
		keys := res.CodeLenByHop.Keys()
		if len(keys) == 0 {
			b.Fatal("no code length data")
		}
		first, last := keys[0], keys[len(keys)-1]
		b.ReportMetric(res.CodeLenByHop.Get(first).Mean(), "bits@hop1")
		b.ReportMetric(res.CodeLenByHop.Get(last).Mean(), "bits@maxhop")
	}
}

func benchPDR(b *testing.B, proto experiment.Proto, wifi bool) {
	for i := 0; i < b.N; i++ {
		res := controlStudy(b, proto, wifi)
		b.ReportMetric(100*res.PDR(), "%PDR")
	}
}

func BenchmarkFig7PDRTele(b *testing.B)       { benchPDR(b, experiment.ProtoTele, false) }
func BenchmarkFig7PDRReTele(b *testing.B)     { benchPDR(b, experiment.ProtoReTele, false) }
func BenchmarkFig7PDRDrip(b *testing.B)       { benchPDR(b, experiment.ProtoDrip, false) }
func BenchmarkFig7PDRRPL(b *testing.B)        { benchPDR(b, experiment.ProtoRPL, false) }
func BenchmarkFig7PDRTeleWifi(b *testing.B)   { benchPDR(b, experiment.ProtoTele, true) }
func BenchmarkFig7PDRReTeleWifi(b *testing.B) { benchPDR(b, experiment.ProtoReTele, true) }
func BenchmarkFig7PDRDripWifi(b *testing.B)   { benchPDR(b, experiment.ProtoDrip, true) }
func BenchmarkFig7PDRRPLWifi(b *testing.B)    { benchPDR(b, experiment.ProtoRPL, true) }

func benchTx(b *testing.B, proto experiment.Proto) {
	for i := 0; i < b.N; i++ {
		res := controlStudy(b, proto, false)
		b.ReportMetric(res.TxPerPacket, "tx/packet")
	}
}

func BenchmarkTable3TxCountTele(b *testing.B) { benchTx(b, experiment.ProtoTele) }
func BenchmarkTable3TxCountDrip(b *testing.B) { benchTx(b, experiment.ProtoDrip) }
func BenchmarkTable3TxCountRPL(b *testing.B)  { benchTx(b, experiment.ProtoRPL) }

func BenchmarkFig8ATHX(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := controlStudy(b, experiment.ProtoTele, false)
		if res.ATHX.Len() == 0 {
			b.Fatal("no ATHX samples")
		}
		// Mean ratio of transmissions travelled to the receiver's CTP hop
		// count — Fig 8a's claim is that this sits at or below 1 for
		// TeleAdjusting.
		sum := 0.0
		for j := range res.ATHX.Xs {
			sum += res.ATHX.Ys[j] / res.ATHX.Xs[j]
		}
		b.ReportMetric(sum/float64(res.ATHX.Len()), "athx/ctphop")
	}
}

func benchDuty(b *testing.B, proto experiment.Proto) {
	for i := 0; i < b.N; i++ {
		res := controlStudy(b, proto, false)
		b.ReportMetric(100*res.AvgDutyCycle, "%duty")
	}
}

func BenchmarkFig9DutyCycleTele(b *testing.B) { benchDuty(b, experiment.ProtoTele) }
func BenchmarkFig9DutyCycleDrip(b *testing.B) { benchDuty(b, experiment.ProtoDrip) }
func BenchmarkFig9DutyCycleRPL(b *testing.B)  { benchDuty(b, experiment.ProtoRPL) }

func benchLatency(b *testing.B, proto experiment.Proto) {
	for i := 0; i < b.N; i++ {
		res := controlStudy(b, proto, false)
		b.ReportMetric(avgOf(res, true), "s-latency")
	}
}

func BenchmarkFig10LatencyTele(b *testing.B) { benchLatency(b, experiment.ProtoTele) }
func BenchmarkFig10LatencyDrip(b *testing.B) { benchLatency(b, experiment.ProtoDrip) }
func BenchmarkFig10LatencyRPL(b *testing.B)  { benchLatency(b, experiment.ProtoRPL) }

// BenchmarkAblationStrictPath compares opportunistic forwarding against
// the strict-path variant (the value of Section III-C2's mechanism).
func BenchmarkAblationStrictPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strict := controlStudy(b, experiment.ProtoTeleStrict, false)
		opp := controlStudy(b, experiment.ProtoTele, false)
		b.ReportMetric(100*strict.PDR(), "%PDR-strict")
		b.ReportMetric(100*opp.PDR(), "%PDR-opportunistic")
	}
}

// BenchmarkAblationReservePolicy compares Algorithm 1 reserve policies:
// code length (cost of over-provisioning) vs space extensions (cost of
// under-provisioning).
func BenchmarkAblationReservePolicy(b *testing.B) {
	policies := []struct {
		name   string
		policy core.ReservePolicy
	}{
		{"tight", core.TightReserve},
		{"default", core.DefaultReserve},
		{"generous", core.GenerousReserve},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			scn := experiment.Indoor(1, false)
			scn.Tele.Reserve = p.policy
			res, err := experiment.RunCodingStudy(scn, 5*time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			sum, n := 0.0, 0
			for _, k := range res.CodeLenByHop.Keys() {
				s := res.CodeLenByHop.Get(k)
				sum += s.Mean() * float64(s.Count())
				n += s.Count()
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), "bits-"+p.name)
			}
		}
	}
}

// BenchmarkExtensionScopedDissemination evaluates the paper's one-to-many
// extension: reconfiguring code subtrees with scoped floods versus
// per-member unicast control.
func BenchmarkExtensionScopedDissemination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := experiment.DefaultScopeOpts()
		opts.Warmup = 6 * time.Minute
		opts.Operations = 2
		res, err := experiment.RunScopeStudy(experiment.Indoor(1, false), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Coverage.Mean(), "%coverage")
		b.ReportMetric(res.TxPerMember, "tx/member-scoped")
		b.ReportMetric(res.UnicastTxPerMember, "tx/member-unicast")
	}
}

// benchLineScenario is the shared 8-node line (see experiment.Line); the
// alias keeps the benchmark call sites readable.
var benchLineScenario = experiment.Line

// BenchmarkReplicationSpeedup measures the wall-clock gain of the
// parallel replication runner: 8 independent replications of a small
// control study on one worker versus the full GOMAXPROCS pool. The merged
// reports must be byte-identical — the speedup is only valid if the
// parallel path changes nothing but wall-clock time.
func BenchmarkReplicationSpeedup(b *testing.B) {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 2 * time.Minute
	opts.Packets = 5
	opts.Interval = 16 * time.Second
	seeds := experiment.DeriveSeeds(1, 8)
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serial, err := experiment.ControlStudy(experiment.ProtoTele, opts).Replicate(benchLineScenario, seeds, 1)
		if err != nil {
			b.Fatal(err)
		}
		serialDur := time.Since(t0)

		t1 := time.Now()
		par, err := experiment.ControlStudy(experiment.ProtoTele, opts).Replicate(benchLineScenario, seeds, 0)
		if err != nil {
			b.Fatal(err)
		}
		parDur := time.Since(t1)

		var sb, pb bytes.Buffer
		experiment.WriteControlReport(&sb, serial)
		experiment.WriteControlReport(&pb, par)
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			b.Fatal("parallel replication diverged from serial")
		}
		b.ReportMetric(float64(serialDur)/float64(parDur), "x-speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	}
}

// BenchmarkTelemetryOverhead measures the telemetry plane in both of its
// states on the same study BenchmarkReplicationSpeedup runs: disabled (no
// span subscriber — every hot-path Emit is rejected by a single mask test,
// the contract that keeps telemetry near-free by default) and traced (a
// Collector subscribed to the core and run layers, full span stream
// retained). Compare the two ns/op figures to see the cost of turning
// tracing on; compare "disabled" against the pre-telemetry baseline of
// BenchmarkReplicationSpeedup to see the cost of having the plane wired
// at all. BENCH_telemetry.json records a reference pass.
func BenchmarkTelemetryOverhead(b *testing.B) {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 2 * time.Minute
	opts.Packets = 5
	opts.Interval = 16 * time.Second
	seeds := experiment.DeriveSeeds(1, 4)

	bench := func(trace bool) func(*testing.B) {
		return func(b *testing.B) {
			o := opts
			o.Trace = trace
			var events int
			for i := 0; i < b.N; i++ {
				res, err := experiment.ControlStudy(experiment.ProtoTele, o).Replicate(benchLineScenario, seeds, 1)
				if err != nil {
					b.Fatal(err)
				}
				if trace && len(res.Events) == 0 {
					b.Fatal("tracing enabled but no events collected")
				}
				if !trace && len(res.Events) != 0 {
					b.Fatal("events collected with tracing off")
				}
				events = len(res.Events)
			}
			if trace {
				b.ReportMetric(float64(events), "events/study")
			}
		}
	}
	b.Run("disabled", bench(false))
	b.Run("traced", bench(true))
}

// BenchmarkSinkSchedulerGoodput measures the sink command plane on the
// 100-node reference grid: a closed-loop workload at 1-way and 8-way
// concurrency. The asserted contract — 8-way goodput strictly above
// sequential — is what justifies the scheduler's existence: pipelining
// independent subtrees must buy real operation throughput, not just
// queue depth. Reported metrics are the sweep's goodput levels and the
// resulting speedup.
func BenchmarkSinkSchedulerGoodput(b *testing.B) {
	opts := experiment.DefaultThroughputOpts()
	opts.Warmup = 4 * time.Minute
	opts.Ops = 24
	opts.Concurrency = []int{1, 8}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunThroughputStudy(
			experiment.ReferenceGrid(1), experiment.ProtoTele, opts)
		if err != nil {
			b.Fatal(err)
		}
		seq, conc := res.Points[0], res.Points[1]
		if seq.OK == 0 || conc.OK == 0 {
			b.Fatalf("no completions: seq=%+v conc=%+v", seq, conc)
		}
		if conc.Goodput <= seq.Goodput {
			b.Fatalf("8-way goodput %.4f ops/s does not beat sequential %.4f ops/s",
				conc.Goodput, seq.Goodput)
		}
		b.ReportMetric(seq.Goodput, "ops/s-conc1")
		b.ReportMetric(conc.Goodput, "ops/s-conc8")
		b.ReportMetric(conc.Goodput/seq.Goodput, "x-speedup")
	}
}

// BenchmarkCmdSvcBatching measures the command service against its
// plain-scheduler baseline on the reference grid — the exact default
// `-study service -proto teleadjust` ramp, asserted at the top offered
// rate. The contract — service goodput strictly above the unbatched
// baseline at overload — is what justifies the service front-end:
// prefix batching, route-freshness caching, and delay-pacing must buy
// completed operations per second, not just queue machinery. The run is
// the full default study deliberately: per-point outcomes are one
// Poisson realization, so a cheaper reduced-op variant would pin a
// different (and meaningless) draw. The committed capture lives in
// BENCH_service.json.
func BenchmarkCmdSvcBatching(b *testing.B) {
	opts := experiment.DefaultServiceOpts()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunServiceStudy(
			experiment.ReferenceGrid(1), experiment.ProtoTeleAdjust, opts)
		if err != nil {
			b.Fatal(err)
		}
		pt := res.Points[len(res.Points)-1]
		if pt.Base.OK == 0 || pt.Svc.OK == 0 {
			b.Fatalf("no completions: base %+v svc %+v", pt.Base, pt.Svc)
		}
		if pt.Svc.Goodput <= pt.Base.Goodput {
			b.Fatalf("service goodput %.4f ops/s does not beat baseline %.4f ops/s",
				pt.Svc.Goodput, pt.Base.Goodput)
		}
		if pt.Batches == 0 {
			b.Fatal("batcher flushed no multi-member carriers")
		}
		b.ReportMetric(pt.Base.Goodput, "ops/s-base")
		b.ReportMetric(pt.Svc.Goodput, "ops/s-svc")
		b.ReportMetric(pt.Speedup(), "x-speedup")
		b.ReportMetric(pt.CacheHitRate(), "cache-hit")
	}
}

// BenchmarkAblationWakeInterval sweeps the LPL wake-up interval (the
// paper fixes 512 ms) and reports the latency/energy trade-off.
func BenchmarkAblationWakeInterval(b *testing.B) {
	intervals := []time.Duration{256 * time.Millisecond, 512 * time.Millisecond, 1024 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		for _, wi := range intervals {
			opts := experiment.DefaultControlOpts()
			opts.Warmup = 6 * time.Minute
			opts.Packets = 15
			opts.Interval = 20 * time.Second
			build := func(seed uint64) experiment.Scenario {
				scn := experiment.Indoor(seed, false)
				scn.TuneControlTimeouts(18 * time.Second)
				scn.Mac.WakeInterval = wi
				scn.Tele.AllocDelay = 10 * wi
				return scn
			}
			res, err := experiment.ControlStudy(experiment.ProtoTele, opts).Replicate(build, []uint64{1}, 1)
			if err != nil {
				b.Fatal(err)
			}
			ms := wi.Milliseconds()
			b.ReportMetric(avgOf(res, true), fmt.Sprintf("s-latency@%dms", ms))
			b.ReportMetric(100*res.AvgDutyCycle, fmt.Sprintf("%%duty@%dms", ms))
		}
	}
}

// BenchmarkAblationFeedbackIntercept measures the Figure 5(a) refinement
// (on-path nodes intercepting overheard feedback packets) on the
// interfered channel where backtracking actually occurs.
func BenchmarkAblationFeedbackIntercept(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, intercept := range []bool{true, false} {
			opts := experiment.DefaultControlOpts()
			opts.Warmup = 6 * time.Minute
			opts.Packets = 20
			opts.Interval = 20 * time.Second
			build := func(seed uint64) experiment.Scenario {
				scn := experiment.Indoor(seed, true)
				scn.TuneControlTimeouts(18 * time.Second)
				scn.Tele.FeedbackIntercept = intercept
				return scn
			}
			res, err := experiment.ControlStudy(experiment.ProtoTele, opts).Replicate(build, []uint64{1}, 1)
			if err != nil {
				b.Fatal(err)
			}
			name := "off"
			if intercept {
				name = "on"
			}
			b.ReportMetric(100*res.PDR(), "%PDR-intercept-"+name)
		}
	}
}
