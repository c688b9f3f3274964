package experiment

import (
	"bytes"
	"testing"
	"time"

	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// svcTestOpts is a scaled-down service ramp for the 8-node test line.
func svcTestOpts() ServiceOpts {
	o := DefaultServiceOpts()
	o.Warmup = 90 * time.Second
	o.Ops = 8
	o.Rates = []float64{0.5}
	o.Dist = "depth"
	o.Window = 8
	o.PerGroup = 8
	o.BatchWindow = 4 * time.Second
	o.BatchBits = 4
	o.MaxBatch = 4
	o.CacheCap = 64
	o.QueueDepth = 0
	o.HighWater = 0
	o.MaxRun = 15 * time.Minute
	return o
}

// transparentOpts disables every service feature, so the study runs only
// its plain-scheduler baseline.
func transparentOpts() ServiceOpts {
	o := svcTestOpts()
	o.BatchWindow = 0
	o.CacheTTL = 0
	o.QueueDepth = 0
	o.HighWater = 0
	return o
}

func TestServiceStudySmall(t *testing.T) {
	opts := svcTestOpts()
	opts.Trace = true
	res, err := RunServiceStudy(smallScenario(7), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d load points, want 1", len(res.Points))
	}
	pt := res.Points[0]
	if pt.Base.OK == 0 || pt.Svc.OK == 0 {
		t.Fatalf("no completions: base %+v svc %+v", pt.Base, pt.Svc)
	}
	if pt.Base.Goodput <= 0 || pt.Svc.Goodput <= 0 {
		t.Fatalf("rates: base=%v svc=%v", pt.Base.Goodput, pt.Svc.Goodput)
	}
	if pt.Base.Latency.Count() != pt.Base.OK || pt.Svc.Latency.Count() != pt.Svc.OK {
		t.Fatalf("latency samples: base %d/%d svc %d/%d",
			pt.Base.Latency.Count(), pt.Base.OK, pt.Svc.Latency.Count(), pt.Svc.OK)
	}
	if pt.CacheHits+pt.CacheMisses == 0 {
		t.Fatal("route cache saw no lookups")
	}
	if len(res.EventsBase) == 0 || len(res.EventsSvc) == 0 {
		t.Fatalf("trace events: base=%d svc=%d", len(res.EventsBase), len(res.EventsSvc))
	}
	// The service trace must carry batch membership spans whenever the
	// batcher flushed multi-member carriers.
	if pt.Batches > 0 {
		var spans, members int
		for _, ev := range res.EventsSvc {
			switch ev.Kind {
			case telemetry.KindSvcBatch:
				spans++
			case telemetry.KindSvcBatchMember:
				members++
			}
		}
		if spans != pt.Batches || members != pt.BatchedCmds {
			t.Fatalf("batch spans %d/%d, members %d/%d",
				spans, pt.Batches, members, pt.BatchedCmds)
		}
	}
}

// TestServiceTransparentMatchesThroughput: with every service feature
// disabled the study must reduce to the open-loop throughput study — same
// outcomes, and a byte-identical sink-layer trace.
func TestServiceTransparentMatchesThroughput(t *testing.T) {
	sOpts := transparentOpts()
	sOpts.Trace = true
	if !sOpts.Transparent() {
		t.Fatal("opts not transparent")
	}
	sRes, err := RunServiceStudy(smallScenario(7), ProtoTele, sOpts)
	if err != nil {
		t.Fatal(err)
	}

	tOpts := ThroughputOpts{LoadOpts: sOpts.LoadOpts, Mode: "open"}
	tRes, err := RunThroughputStudy(smallScenario(7), ProtoTele, tOpts)
	if err != nil {
		t.Fatal(err)
	}

	sp, tp := sRes.Points[0], tRes.Points[0]
	if sp.Svc != sp.Base {
		t.Fatal("transparent study ran a separate service run")
	}
	if sp.Svc.OK != tp.OK || sp.Svc.Failed != tp.Failed ||
		sp.Svc.Unroutable != tp.Unroutable || sp.Svc.Unresolved != tp.Unresolved {
		t.Fatalf("transparent outcomes diverge: svc %+v, throughput %+v", sp.Svc, tp)
	}
	if sp.Batches != 0 || sp.Svc.Rejected != 0 || sp.Delayed != 0 ||
		sp.CacheHits+sp.CacheMisses != 0 {
		t.Fatalf("transparent run exercised service features: %+v", sp)
	}

	render := func(evs []telemetry.Event) []byte {
		var sb bytes.Buffer
		if err := telemetry.WriteJSONL(&sb, evs); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes()
	}
	base, svc, thr := render(sRes.EventsBase), render(sRes.EventsSvc), render(tRes.Events)
	if !bytes.Equal(base, thr) {
		t.Fatalf("transparent service trace differs from throughput trace (%d vs %d bytes)", len(base), len(thr))
	}
	if !bytes.Equal(svc, base) {
		t.Fatal("transparent service trace differs from its own baseline")
	}
}

// TestServiceReplicationDeterministic: parallel seed replication must
// render byte-identical reports, CSVs, and traces to the serial run.
func TestServiceReplicationDeterministic(t *testing.T) {
	seeds := DeriveSeeds(13, 2)
	opts := svcTestOpts()
	opts.Trace = true

	render := func(workers int) ([]byte, []byte, []byte) {
		res, err := ServiceStudy(ProtoTele, opts).Replicate(smallScenario, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		var report, csvOut, events bytes.Buffer
		WriteServiceReport(&report, res)
		if err := WriteServiceCSV(&csvOut, res); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&events, res.EventsBase); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&events, res.EventsSvc); err != nil {
			t.Fatal(err)
		}
		return report.Bytes(), csvOut.Bytes(), events.Bytes()
	}

	serialRep, serialCSV, serialEv := render(1)
	parallelRep, parallelCSV, parallelEv := render(4)
	if !bytes.Equal(serialRep, parallelRep) {
		t.Fatalf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialRep, parallelRep)
	}
	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Fatalf("parallel CSV differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serialCSV, parallelCSV)
	}
	if !bytes.Equal(serialEv, parallelEv) {
		t.Fatal("parallel telemetry stream differs from serial")
	}
}

func TestServiceStudyValidation(t *testing.T) {
	opts := svcTestOpts()
	opts.Rates = nil
	if _, err := RunServiceStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("empty rate sweep accepted")
	}
	opts = svcTestOpts()
	opts.Dist = "bogus"
	if _, err := RunServiceStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// goldenServiceResult is a hand-built fixture exercising every column of
// the service report and CSV.
func goldenServiceResult() *ServiceResult {
	res := &ServiceResult{
		Proto:    "TeleAdjust",
		Scenario: "golden-grid",
		Dist:     "hotspot",
	}
	run := func(offered, goodput float64, ok, failed int, lat ...float64) *ThroughputPoint {
		pt := &ThroughputPoint{Offered: offered, Goodput: goodput, Ops: 120, OK: ok, Failed: failed,
			Latency: &stats.Series{}, QueueWait: &stats.Series{}}
		for _, v := range lat {
			pt.Latency.Add(v)
		}
		return pt
	}
	p1 := &ServicePoint{
		Label:   "rate=0.50",
		Base:    run(0.44, 0.137, 82, 38, 88.1, 142.7, 179.3, 205.5, 390.2),
		Svc:     run(0.41, 0.167, 94, 26, 31.8, 60.4, 82.3, 110.9, 247.6),
		Batches: 23, BatchedCmds: 50,
		CacheHits: 22, CacheMisses: 75,
	}
	p2 := &ServicePoint{
		Label:   "rate=2.00",
		Base:    run(1.34, 0.159, 96, 24, 120.4, 201.8, 248.4, 300.0, 511.7),
		Svc:     run(1.21, 0.205, 104, 9, 58.2, 101.3, 140.2, 188.8, 352.1),
		Delayed: 2,
		Batches: 31, BatchedCmds: 88,
		CacheHits: 19, CacheMisses: 93,
	}
	p2.Svc.Unresolved, p2.Svc.Rejected = 1, 4
	res.Points = []*ServicePoint{p1, p2}
	return res
}

func TestWriteServiceReportGolden(t *testing.T) {
	var sb bytes.Buffer
	WriteServiceReport(&sb, goldenServiceResult())
	checkGolden(t, "service_report.golden", sb.Bytes())
}

func TestWriteServiceCSVGolden(t *testing.T) {
	var sb bytes.Buffer
	if err := WriteServiceCSV(&sb, goldenServiceResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "service_csv.golden", sb.Bytes())
}
