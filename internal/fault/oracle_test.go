package fault

import (
	"strings"
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

func testOracle(rescue bool) *Oracle {
	return NewOracle(OracleConfig{
		NumNodes:       8,
		Sink:           0,
		RetryRounds:    2,
		Backtracks:     1,
		ControlTimeout: 10 * time.Second,
		RescueEnabled:  rescue,
	})
}

func ctrlTx(src radio.NodeID, seq uint32, c *core.Control) telemetry.Event {
	return telemetry.Event{
		Layer: telemetry.LayerRadio,
		Kind:  telemetry.KindRadioTx,
		Node:  src,
		Src:   src,
		Seq:   seq,
		Frame: &radio.Frame{Kind: radio.FrameData, Src: src, Dst: radio.BroadcastID, Seq: seq, Payload: c},
	}
}

func hasViolation(o *Oracle, invariant string) bool {
	for _, v := range o.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func TestOracleRetxBound(t *testing.T) {
	o := testOracle(false)
	// (RetryRounds+1)×(Backtracks+2) = 9 logical sends allowed per relay.
	for seq := uint32(1); seq <= 9; seq++ {
		o.Consume(ctrlTx(3, seq, &core.Control{UID: 1, Op: 1, Dst: 7}))
	}
	// LPL stream copies reuse the link-layer seq: not a new logical send.
	o.Consume(ctrlTx(3, 9, &core.Control{UID: 1, Op: 1, Dst: 7}))
	if hasViolation(o, "retx-bound") {
		t.Fatalf("bound hit too early: %s", o.Summary())
	}
	o.Consume(ctrlTx(3, 10, &core.Control{UID: 1, Op: 1, Dst: 7}))
	if !hasViolation(o, "retx-bound") {
		t.Fatal("10th distinct send from one relay not flagged")
	}
	if o.SendsFor(1, 3) != 10 {
		t.Fatalf("SendsFor = %d, want 10", o.SendsFor(1, 3))
	}
}

func TestOracleHopBound(t *testing.T) {
	o := testOracle(false)
	// Default bound: 8 × 3 × 3 = 72.
	o.Consume(ctrlTx(2, 1, &core.Control{UID: 4, Op: 4, Dst: 7, Hops: 72}))
	if hasViolation(o, "hop-bound") {
		t.Fatalf("bound hit at the limit: %s", o.Summary())
	}
	o.Consume(ctrlTx(2, 2, &core.Control{UID: 4, Op: 4, Dst: 7, Hops: 73}))
	if !hasViolation(o, "hop-bound") {
		t.Fatal("hop counter past bound not flagged")
	}
}

func TestOracleDetourDiscipline(t *testing.T) {
	// A detour with rescue disabled is always a violation.
	o := testOracle(false)
	o.Consume(ctrlTx(0, 1, &core.Control{UID: 1, Op: 1, Dst: 7}))
	o.Consume(ctrlTx(0, 2, &core.Control{UID: 2, Op: 1, Dst: 5, Detour: true}))
	if !hasViolation(o, "retele-enabled") {
		t.Fatal("detour with rescue disabled not flagged")
	}

	// Proper sequence: direct attempt first, then the detour referencing it.
	o = testOracle(true)
	o.Consume(ctrlTx(0, 1, &core.Control{UID: 1, Op: 1, Dst: 7}))
	o.Consume(ctrlTx(0, 2, &core.Control{UID: 2, Op: 1, Dst: 5, Detour: true}))
	if len(o.Violations()) != 0 {
		t.Fatalf("legitimate rescue flagged: %s", o.Summary())
	}

	// Detour with no prior direct attempt on the air.
	o = testOracle(true)
	o.Consume(ctrlTx(0, 1, &core.Control{UID: 9, Op: 3, Dst: 5, Detour: true}))
	if !hasViolation(o, "retele-after-failure") {
		t.Fatal("detour without prior attempt not flagged")
	}

	// Detour that is its own origin (Op == UID).
	o = testOracle(true)
	o.Consume(ctrlTx(0, 1, &core.Control{UID: 4, Op: 4, Dst: 5, Detour: true}))
	if !hasViolation(o, "retele-after-failure") {
		t.Fatal("self-referential detour not flagged")
	}
}

// TestOracleBatchMemberDetour: a batch carrier travels under its first
// member's UID/Op, but every member was attempted directly, so a Re-Tele
// detour for the second member references a real prior attempt.
func TestOracleBatchMemberDetour(t *testing.T) {
	o := testOracle(true)
	o.Consume(ctrlTx(0, 1, &core.Control{UID: 1, Op: 1, Dst: 3, Batch: []core.BatchMember{
		{UID: 1, Op: 1, Dst: 6}, {UID: 2, Op: 2, Dst: 7}}}))
	o.Consume(ctrlTx(0, 2, &core.Control{UID: 3, Op: 2, Dst: 5, Detour: true}))
	if len(o.Violations()) != 0 {
		t.Fatalf("rescue of a batch member flagged: %s", o.Summary())
	}
}

func TestOracleCheckWithoutStateHooksIsClean(t *testing.T) {
	o := testOracle(false)
	o.Consume(ctrlTx(1, 1, &core.Control{UID: 1, Op: 1, Dst: 7}))
	if v := o.Check(); len(v) != 0 {
		t.Fatalf("clean trace produced violations: %s", o.Summary())
	}
	if s := o.Summary(); s != "" {
		t.Fatalf("Summary() = %q, want empty", s)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{At: time.Second, Invariant: "hop-bound", Detail: "too far"}
	if !strings.Contains(v.String(), "hop-bound") || !strings.Contains(v.String(), "too far") {
		t.Fatalf("String() = %q", v.String())
	}
}
