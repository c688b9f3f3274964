package experiment

import (
	"bytes"
	"testing"
	"time"

	"teleadjust/internal/telemetry"
)

// traceGoldenOpts is a short control study whose full telemetry stream is
// pinned byte-for-byte: every event timestamp depends transitively on the
// medium's RNG draw order, so any change to channel-state construction
// that perturbs gains, neighbor order, or draw sequence shows up here.
func traceGoldenOpts() ControlOpts {
	return ControlOpts{
		Warmup:   90 * time.Second,
		Packets:  3,
		Interval: 16 * time.Second,
		Drain:    20 * time.Second,
		Trace:    true,
	}
}

// pinTrace runs the study and compares the JSONL-serialized event stream
// against the committed golden (created with -update under the dense
// all-pairs medium; the sparse medium must reproduce it exactly).
func pinTrace(t *testing.T, name string, scn Scenario, proto Proto) {
	t.Helper()
	res, err := RunControlStudy(scn, proto, traceGoldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("tracing enabled but no events collected")
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, buf.Bytes())
}

// TestControlTraceGoldenLine pins the 8-node line scenario's telemetry
// stream (the regression bar for "existing scenario traces stay
// byte-identical" across medium refactors).
func TestControlTraceGoldenLine(t *testing.T) {
	pinTrace(t, "trace_line.jsonl.golden", smallScenario(5), ProtoReTele)
}

// TestControlTraceGoldenRefGrid pins the 100-node reference grid, whose
// shadowed gains consume the medium's full legacy RNG sweep — a change in
// draw order or count anywhere in construction breaks this.
func TestControlTraceGoldenRefGrid(t *testing.T) {
	pinTrace(t, "trace_refgrid.jsonl.golden", ReferenceGrid(3), ProtoTele)
}

// TestControlTraceGoldenLineTreeExplorer pins the line scenario under the
// variable-length treeexplorer codec, the only trace pin whose labels are
// not fixed-width positions: relabeling, label-bearing beacons and the
// codec seam's non-positional paths all feed this stream.
func TestControlTraceGoldenLineTreeExplorer(t *testing.T) {
	scn := smallScenario(5)
	scn.Codec = "treeexplorer"
	pinTrace(t, "trace_line_treeexplorer.jsonl.golden", scn, ProtoReTele)
}
