package experiment

import (
	"bytes"
	"testing"
	"time"

	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// throughputOpts is a scaled-down closed-loop sweep for tests.
func throughputOpts() ThroughputOpts {
	o := DefaultThroughputOpts()
	o.Warmup = 90 * time.Second
	o.Ops = 6
	o.Concurrency = []int{1, 2}
	o.MaxRun = 10 * time.Minute
	return o
}

func TestThroughputStudySmall(t *testing.T) {
	opts := throughputOpts()
	opts.Trace = true
	res, err := RunThroughputStudy(smallScenario(7), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d load points, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.OK == 0 {
			t.Fatalf("point %s completed no operations: %+v", pt.Label, pt)
		}
		if pt.Goodput <= 0 || pt.Offered <= 0 {
			t.Fatalf("point %s rates: offered=%v goodput=%v", pt.Label, pt.Offered, pt.Goodput)
		}
		if pt.Unresolved != 0 {
			t.Fatalf("point %s left %d ops unresolved", pt.Label, pt.Unresolved)
		}
		if pt.Latency.Count() != pt.OK {
			t.Fatalf("point %s latency samples=%d ok=%d", pt.Label, pt.Latency.Count(), pt.OK)
		}
	}
	// The trace must hold exactly one enqueue and one completion per op.
	type ticket struct {
		run int
		seq uint32
	}
	type phases struct{ enqueued, completed int }
	tickets := map[ticket]*phases{}
	for _, ev := range res.Events {
		if ev.Layer != telemetry.LayerSink {
			continue
		}
		k := ticket{ev.Run, ev.Seq}
		p := tickets[k]
		if p == nil {
			p = &phases{}
			tickets[k] = p
		}
		switch ev.Kind {
		case telemetry.KindSinkEnqueue:
			p.enqueued++
		case telemetry.KindSinkComplete:
			p.completed++
		}
	}
	if len(tickets) != 2*opts.Ops {
		t.Fatalf("%d tickets in the trace, want %d", len(tickets), 2*opts.Ops)
	}
	for k, p := range tickets {
		if p.enqueued != 1 || p.completed != 1 {
			t.Fatalf("run %d ticket %d: %d enqueues, %d completions, want 1 and 1",
				k.run, k.seq, p.enqueued, p.completed)
		}
	}
}

func TestThroughputOpenLoop(t *testing.T) {
	opts := throughputOpts()
	opts.Mode = "open"
	opts.Rates = []float64{0.2}
	opts.Dist = "depth"
	res, err := RunThroughputStudy(smallScenario(7), ProtoTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.OK == 0 || pt.Unresolved != 0 {
		t.Fatalf("open-loop point: %+v", pt)
	}
}

func TestThroughputDistValidation(t *testing.T) {
	opts := throughputOpts()
	opts.Dist = "bogus"
	if _, err := RunThroughputStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	opts = throughputOpts()
	opts.Concurrency = nil
	if _, err := RunThroughputStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("empty concurrency sweep accepted")
	}
	opts = throughputOpts()
	opts.Concurrency = []int{1, 0}
	if _, err := RunThroughputStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("zero concurrency level accepted")
	}
	opts = throughputOpts()
	opts.Mode = "open"
	opts.Rates = nil
	if _, err := RunThroughputStudy(smallScenario(7), ProtoTele, opts); err == nil {
		t.Fatal("empty rate sweep accepted")
	}
}

// TestThroughputReplicationDeterministic: the parallel replication must
// render byte-identical reports and CSVs to the serial one, trace
// included.
func TestThroughputReplicationDeterministic(t *testing.T) {
	seeds := DeriveSeeds(11, 3)
	opts := throughputOpts()
	opts.Trace = true

	render := func(workers int) ([]byte, []byte, []byte) {
		res, err := ThroughputStudy(ProtoTele, opts).Replicate(smallScenario, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		var report, csvOut, events bytes.Buffer
		WriteThroughputReport(&report, res)
		if err := WriteThroughputCSV(&csvOut, res); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteJSONL(&events, res.Events); err != nil {
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

// goldenThroughputResult is a hand-built fixture exercising every column
// of the throughput report.
func goldenThroughputResult() *ThroughputResult {
	res := &ThroughputResult{
		Proto:    "TeleAdjust",
		Scenario: "golden-grid",
		Mode:     "closed",
		Dist:     "uniform",
	}
	p1 := &ThroughputPoint{
		Label: "conc=1", Offered: 0.118, Goodput: 0.112,
		Ops: 40, OK: 38, Failed: 1, Unroutable: 1, Retries: 2,
		Latency: &stats.Series{}, QueueWait: &stats.Series{},
	}
	for _, v := range []float64{4.2, 5.1, 5.8, 7.3, 11.6} {
		p1.Latency.Add(v)
	}
	for _, v := range []float64{0, 0.4, 1.2} {
		p1.QueueWait.Add(v)
	}
	p2 := &ThroughputPoint{
		Label: "conc=8", Offered: 0.412, Goodput: 0.387,
		Ops: 40, OK: 37, Failed: 1, Rejected: 1, Expired: 1, Retries: 5, Unresolved: 0,
		Latency: &stats.Series{}, QueueWait: &stats.Series{},
	}
	for _, v := range []float64{5.0, 6.2, 8.8, 13.4, 21.7} {
		p2.Latency.Add(v)
	}
	for _, v := range []float64{0.8, 2.5, 6.1} {
		p2.QueueWait.Add(v)
	}
	res.Points = []*ThroughputPoint{p1, p2}
	return res
}

func TestWriteThroughputReportGolden(t *testing.T) {
	var sb bytes.Buffer
	WriteThroughputReport(&sb, goldenThroughputResult())
	checkGolden(t, "throughput_report.golden", sb.Bytes())
}

func TestWriteThroughputCSVGolden(t *testing.T) {
	var sb bytes.Buffer
	if err := WriteThroughputCSV(&sb, goldenThroughputResult()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "throughput_csv.golden", sb.Bytes())
}
