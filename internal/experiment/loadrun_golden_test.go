package experiment

import (
	"bytes"
	"testing"

	"teleadjust/internal/telemetry"
)

// The load studies' real-run pins: two-seed replications on the 8-node
// test line, each rendered as report, CSV and sink-layer JSONL into one
// golden. The hand-built report fixtures pin the renderers; these pin
// what the runners feed them.

func replicateGolden[R any](t *testing.T, name string, st Study[R], write func(*bytes.Buffer, R) error) {
	t.Helper()
	res, err := st.Replicate(smallScenario, DeriveSeeds(13, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := write(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, buf.Bytes())
}

func pinServiceRun(t *testing.T, name string, opts ServiceOpts) {
	t.Helper()
	opts.Trace = true
	replicateGolden(t, name, ServiceStudy(ProtoTele, opts), func(w *bytes.Buffer, res *ServiceResult) error {
		WriteServiceReport(w, res)
		if err := WriteServiceCSV(w, res); err != nil {
			return err
		}
		if err := telemetry.WriteJSONL(w, res.EventsBase); err != nil {
			return err
		}
		return telemetry.WriteJSONL(w, res.EventsSvc)
	})
}

func pinThroughputRun(t *testing.T, name string, opts ThroughputOpts) {
	t.Helper()
	opts.Trace = true
	replicateGolden(t, name, ThroughputStudy(ProtoTele, opts), func(w *bytes.Buffer, res *ThroughputResult) error {
		WriteThroughputReport(w, res)
		if err := WriteThroughputCSV(w, res); err != nil {
			return err
		}
		return telemetry.WriteJSONL(w, res.Events)
	})
}

func TestServiceRunGolden(t *testing.T) {
	pinServiceRun(t, "service_run.golden", svcTestOpts())
}

func TestServiceRunTransparentGolden(t *testing.T) {
	pinServiceRun(t, "service_run_transparent.golden", transparentOpts())
}

// TestServiceRunShedGolden pins a rejecting admission gate: a one-wide
// window and a high-water mark of one shed under both rates.
func TestServiceRunShedGolden(t *testing.T) {
	opts := svcTestOpts()
	opts.Window = 1
	opts.PerGroup = 1
	opts.HighWater = 1
	opts.Policy = "reject"
	opts.Rates = []float64{0.5, 4}
	pinServiceRun(t, "service_run_shed.golden", opts)
}

func TestThroughputRunClosedGolden(t *testing.T) {
	opts := throughputOpts()
	opts.Concurrency = []int{1, 4}
	pinThroughputRun(t, "throughput_run_closed.golden", opts)
}

func TestThroughputRunOpenGolden(t *testing.T) {
	opts := throughputOpts()
	opts.Mode = "open"
	opts.Rates = []float64{0.3, 1}
	pinThroughputRun(t, "throughput_run_open.golden", opts)
}
