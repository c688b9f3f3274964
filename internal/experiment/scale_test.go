package experiment

import (
	"bytes"
	"os"
	"testing"
	"time"

	"teleadjust/internal/obs"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// skipUnlessScale gates the multi-minute 1k-node studies: they exceed
// the default per-package `go test` timeout budget, so they only run
// when asked for explicitly (make test-scale-full).
func skipUnlessScale(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("1k-node study skipped in short mode")
	}
	if os.Getenv("TELEADJUST_SCALE") == "" {
		t.Skip("set TELEADJUST_SCALE=1 (make test-scale-full) to run the multi-minute 1k-node studies")
	}
}

// TestGrid1kSmoke is the short-friendly scale smoke (make test-scale runs
// it under -race): the 1024-node field must build through the sparse
// medium with an O(links) channel table and run its beacon-storm opening
// without incident.
func TestGrid1kSmoke(t *testing.T) {
	scn := Grid1K(3)
	net, err := Build(scn.config(ProtoReTele))
	if err != nil {
		t.Fatal(err)
	}
	n := net.Dep.Len()
	if n != 1024 {
		t.Fatalf("grid1k has %d nodes, want 1024", n)
	}
	avgDeg := float64(net.Medium.NumLinks()) / float64(n)
	if avgDeg < 10 || avgDeg > 200 {
		t.Fatalf("average stored degree %.1f outside the calibrated range", avgDeg)
	}
	net.Start()
	if err := net.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	withParent := 0
	for i, st := range net.Stacks {
		if radio.NodeID(i) == net.Sink {
			continue
		}
		if st.Ctp.HasRoute() {
			withParent++
		}
	}
	// 15 s is early convergence; the tree must already be spreading
	// outward from the sink.
	if withParent < n/8 {
		t.Fatalf("only %d/%d nodes joined the tree after 15s", withParent, n-1)
	}
}

// TestGrid1kParallelReplicationByteIdentical extends the replication
// determinism contract to the 1024-node field: the merged control report
// and the merged telemetry trace of a 2-seed study must serialize to the
// same bytes on a serial runner and a 2-worker pool.
func TestGrid1kParallelReplicationByteIdentical(t *testing.T) {
	skipUnlessScale(t)
	seeds := DeriveSeeds(21, 2)
	opts := ControlOpts{
		Warmup:   60 * time.Second,
		Packets:  2,
		Interval: 10 * time.Second,
		Drain:    12 * time.Second,
		Trace:    true,
		Window:   30 * time.Second,
	}
	serial, err := ControlStudy(ProtoReTele, opts).Replicate(Grid1K, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ControlStudy(ProtoReTele, opts).Replicate(Grid1K, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Events) == 0 {
		t.Fatal("tracing enabled but no events collected")
	}
	var sb, pb bytes.Buffer
	WriteControlReport(&sb, serial)
	WriteControlReport(&pb, parallel)
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("grid1k parallel merge diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
	sb.Reset()
	pb.Reset()
	if err := telemetry.WriteJSONL(&sb, serial.Events); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(&pb, parallel.Events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("grid1k parallel trace diverged from serial: %d vs %d bytes", sb.Len(), pb.Len())
	}
	sb.Reset()
	pb.Reset()
	obs.WriteConvergenceReport(&sb, serial.Convergence)
	obs.WriteConvergenceReport(&pb, parallel.Convergence)
	if sb.Len() == 0 || !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("grid1k parallel convergence report diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			sb.String(), pb.String())
	}
}

// TestGrid1kControlStudy runs a full control study on the 1024-node
// field. Controller registry coverage builds level by level over the
// ~12-hop tree, so early picks of the uniform destination draw are
// skipped; with a 10-minute warmup (codes stable, trickle backed off)
// and 24 packets the study must send and deliver through the sparse
// medium. Deterministic for the fixed seed — any change in the numbers
// is a behavior change, not flakiness.
func TestGrid1kControlStudy(t *testing.T) {
	skipUnlessScale(t)
	opts := ControlOpts{
		Warmup:   10 * time.Minute,
		Packets:  24,
		Interval: 8 * time.Second,
		Drain:    30 * time.Second,
	}
	res, err := RunControlStudy(Grid1K(1), ProtoReTele, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("grid1k: sent=%d delivered=%d acked=%d skipped=%d",
		res.Sent, res.Delivered, res.AckedOK, res.Skipped)
	// At minute 10–13 the 1k field is still settling (codes cascade for
	// tens of minutes; see EXPERIMENTS.md "Scaling the field"), so the
	// bar is completion and some end-to-end deliveries, not a converged
	// PDR: seed 1 sends 6 and delivers 3, including 7- and 8-hop paths.
	if res.Sent < 4 {
		t.Fatalf("only %d control packets found a coded destination on the 1k field", res.Sent)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered on the 1k field")
	}
}
