package experiment

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"teleadjust/internal/fault"
	"teleadjust/internal/obs"
	"teleadjust/internal/telemetry"
)

// replicateOpts is a fast control study for replication tests.
func replicateOpts() ControlOpts {
	return ControlOpts{
		Warmup:   90 * time.Second,
		Packets:  3,
		Interval: 16 * time.Second,
		Drain:    20 * time.Second,
	}
}

// TestParallelReplicationByteIdentical is the determinism contract of
// Study.Replicate: N replications merged on a multi-worker pool must
// produce a byte-identical report to the serial merge, regardless of
// scheduling.
func TestParallelReplicationByteIdentical(t *testing.T) {
	seeds := DeriveSeeds(7, 4)
	opts := replicateOpts()

	serial, err := ControlStudy(ProtoTele, opts).Replicate(smallScenario, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ControlStudy(ProtoTele, opts).Replicate(smallScenario, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}

	var sb, pb bytes.Buffer
	WriteControlReport(&sb, serial)
	WriteControlReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
	if serial.Sent != 3*len(seeds) {
		t.Fatalf("merged Sent = %d, want %d", serial.Sent, 3*len(seeds))
	}
}

// TestParallelReplicationTraceByteIdentical extends the determinism
// contract to the telemetry plane: with tracing enabled, the merged event
// stream of a multi-worker pool must serialize to the exact same JSONL
// bytes as the serial merge. Events are tagged with their replication
// index during the merge, so ordering is by seed position, never by
// worker completion order.
func TestParallelReplicationTraceByteIdentical(t *testing.T) {
	seeds := DeriveSeeds(11, 3)
	opts := replicateOpts()
	opts.Trace = true

	serial, err := ControlStudy(ProtoReTele, opts).Replicate(smallScenario, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ControlStudy(ProtoReTele, opts).Replicate(smallScenario, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Events) == 0 {
		t.Fatal("tracing enabled but no events collected")
	}
	runs := map[int]bool{}
	for _, ev := range serial.Events {
		runs[ev.Run] = true
	}
	for ri := range seeds {
		if !runs[ri] {
			t.Fatalf("no events tagged with replication index %d", ri)
		}
	}

	var sb, pb bytes.Buffer
	if err := telemetry.WriteJSONL(&sb, serial.Events); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&pb, parallel.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel trace diverged from serial: %d vs %d bytes", sb.Len(), pb.Len())
	}
}

// TestParallelCodingReplication checks the coding study the same way.
func TestParallelCodingReplication(t *testing.T) {
	seeds := DeriveSeeds(9, 3)
	serial, err := CodingStudy(2*time.Minute).Replicate(smallScenario, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CodingStudy(2*time.Minute).Replicate(smallScenario, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sb, pb bytes.Buffer
	WriteCodingReport(&sb, serial)
	WriteCodingReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("parallel coding merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
}

// TestFaultPlanReplicationByteIdentical extends the determinism contract
// to fault-scripted runs: a scenario carrying a FaultPlan (crash, lossy
// window, reboot — all of which consume injector RNG and mutate node
// lifecycles) must still merge byte-identically on a parallel pool. The
// plan value is shared across all replications on purpose: the injector
// must treat it as read-only.
func TestFaultPlanReplicationByteIdentical(t *testing.T) {
	plan := &fault.Plan{Name: "replicate-churn", Events: []fault.Event{
		{At: fault.Duration(100 * time.Second), Kind: fault.Crash, Node: 6},
		{At: fault.Duration(105 * time.Second), Kind: fault.Drop, From: fault.Any, To: fault.Any, Prob: 0.2, For: fault.Duration(30 * time.Second)},
		{At: fault.Duration(140 * time.Second), Kind: fault.Reboot, Node: 6},
	}}
	build := func(seed uint64) Scenario {
		s := smallScenario(seed)
		s.Fault = plan
		return s
	}
	seeds := DeriveSeeds(13, 4)
	opts := replicateOpts()
	opts.DataIPI = 20 * time.Second // exercise the ticker bookkeeping across crash/reboot

	serial, err := ControlStudy(ProtoReTele, opts).Replicate(build, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ControlStudy(ProtoReTele, opts).Replicate(build, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb, pb bytes.Buffer
	WriteControlReport(&sb, serial)
	WriteControlReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("fault-scripted parallel merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
	if serial.Sent == 0 {
		t.Fatal("nothing sent through the fault plan")
	}
}

func TestDeriveSeedsDeterministic(t *testing.T) {
	a := DeriveSeeds(1, 8)
	b := DeriveSeeds(1, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs between derivations", i)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate derived seed %#x", s)
		}
		seen[s] = true
	}
	if c := DeriveSeeds(2, 8); c[0] == a[0] {
		t.Fatal("different base seeds derived the same stream")
	}
}

func TestReplicatorEmptySeeds(t *testing.T) {
	if _, err := ControlStudy(ProtoTele, replicateOpts()).Replicate(smallScenario, nil, 0); err == nil {
		t.Fatal("empty seed list accepted")
	}
	if _, err := CodingStudy(time.Minute).Replicate(smallScenario, nil, 0); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

// TestReplicatorPropagatesErrors: a failing replication must surface its
// error deterministically (lowest seed index wins).
func TestReplicatorPropagatesErrors(t *testing.T) {
	bad := func(seed uint64) Scenario {
		s := smallScenario(seed)
		if seed == 2 || seed == 3 {
			s.Dep = nil // Build fails
		}
		return s
	}
	_, err := ControlStudy(ProtoTele, replicateOpts()).Replicate(bad, []uint64{1, 2, 3}, 4)
	if err == nil {
		t.Fatal("replication error swallowed")
	}
	want := fmt.Sprintf("%v", err)
	for i := 0; i < 3; i++ {
		_, err2 := ControlStudy(ProtoTele, replicateOpts()).Replicate(bad, []uint64{1, 2, 3}, 4)
		if got := fmt.Sprintf("%v", err2); got != want {
			t.Fatalf("error not deterministic: %q vs %q", got, want)
		}
	}
}

// TestReplicatorWorkerCaps: worker counts beyond the seed count and the
// zero default both behave.
func TestReplicatorWorkerCaps(t *testing.T) {
	seeds := DeriveSeeds(5, 2)
	opts := replicateOpts()
	res, err := ControlStudy(ProtoTele, opts).Replicate(smallScenario, seeds, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 6 {
		t.Fatalf("sent = %d, want 6", res.Sent)
	}
	res, err = ControlStudy(ProtoTele, opts).Replicate(smallScenario, seeds, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 6 {
		t.Fatalf("default pool: sent = %d, want 6", res.Sent)
	}
}

// TestOneSeedReplicateMatchesRun is the contract that lets the CLIs run
// every study through Replicate: over one seed, each study's report, CSV
// and JSONL outputs are byte-identical to those of the direct run.
func TestOneSeedReplicateMatchesRun(t *testing.T) {
	ctl := replicateOpts()
	ctl.Trace = true
	ctl.Window = 30 * time.Second
	checkOneSeed(t, "control", ControlStudy(ProtoReTele, ctl),
		func(scn Scenario) (*ControlResult, error) { return RunControlStudy(scn, ProtoReTele, ctl) },
		func(w io.Writer, r *ControlResult) error {
			WriteControlReport(w, r)
			obs.WriteConvergenceReport(w, r.Convergence)
			if err := WriteControlCSV(w, r); err != nil {
				return err
			}
			return telemetry.WriteJSONL(w, r.Events)
		})
	checkOneSeed(t, "coding", CodingStudy(2*time.Minute),
		func(scn Scenario) (*CodingResult, error) { return RunCodingStudy(scn, 2*time.Minute) },
		func(w io.Writer, r *CodingResult) error {
			WriteCodingReport(w, r)
			return WriteCodingCSV(w, r)
		})
	tp := throughputOpts()
	tp.Trace = true
	checkOneSeed(t, "throughput", ThroughputStudy(ProtoTele, tp),
		func(scn Scenario) (*ThroughputResult, error) { return RunThroughputStudy(scn, ProtoTele, tp) },
		func(w io.Writer, r *ThroughputResult) error {
			WriteThroughputReport(w, r)
			if err := WriteThroughputCSV(w, r); err != nil {
				return err
			}
			return telemetry.WriteJSONL(w, r.Events)
		})
	svc := svcTestOpts()
	svc.Trace = true
	checkOneSeed(t, "service", ServiceStudy(ProtoTele, svc),
		func(scn Scenario) (*ServiceResult, error) { return RunServiceStudy(scn, ProtoTele, svc) },
		func(w io.Writer, r *ServiceResult) error {
			WriteServiceReport(w, r)
			if err := WriteServiceCSV(w, r); err != nil {
				return err
			}
			if err := telemetry.WriteJSONL(w, r.EventsBase); err != nil {
				return err
			}
			return telemetry.WriteJSONL(w, r.EventsSvc)
		})
	codecs := []string{"paper", "treeexplorer"}
	checkOneSeed(t, "coding-schemes", CodingSchemesStudy(codecs, codecStudyOpts()),
		func(scn Scenario) (*CodingSchemesResult, error) {
			return RunCodingSchemesStudy(scn, codecs, codecStudyOpts())
		},
		func(w io.Writer, r *CodingSchemesResult) error {
			WriteCodingSchemesReport(w, r)
			return WriteCodingSchemesCSV(w, r)
		})
}

// checkOneSeed renders a direct run and a one-seed replication of the same
// study and scenario, and requires identical bytes.
func checkOneSeed[R any](t *testing.T, name string, study Study[R],
	direct func(Scenario) (R, error), render func(io.Writer, R) error) {
	t.Run(name, func(t *testing.T) {
		const seed = 3
		want, err := direct(smallScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := study.Replicate(smallScenario, []uint64{seed}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		if err := render(&wb, want); err != nil {
			t.Fatal(err)
		}
		if err := render(&gb, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("one-seed replication diverged from the direct run:\n--- direct ---\n%s\n--- replicated ---\n%s",
				wb.String(), gb.String())
		}
	})
}
