package protocol

import (
	"slices"
	"testing"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

const testTimeout = 10 * time.Second

// record collects every result delivered to its callback.
type record struct{ got []Result }

func (r *record) cb(res Result) { r.got = append(r.got, res) }

func newTable() (*sim.Engine, *Ops) {
	eng := sim.NewEngine()
	return eng, NewOps(eng, testTimeout)
}

func TestAckResolvesOnce(t *testing.T) {
	eng, ops := newTable()
	var rec record
	op := ops.Open(7, nil, rec.cb)
	eng.Schedule(3*time.Second, func() { ops.Ack(op.UID, 7, 4) })
	eng.Schedule(4*time.Second, func() { ops.Ack(op.UID, 7, 4) })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := Result{UID: op.UID, Dst: 7, OK: true, Latency: 3 * time.Second, E2EHops: 4}
	if len(rec.got) != 1 || rec.got[0] != want {
		t.Fatalf("results = %+v, want exactly [%+v]", rec.got, want)
	}
	if p := ops.Pending(); len(p) != 0 {
		t.Fatalf("pending after ack = %+v", p)
	}
}

func TestTimeoutFailsOnceAndIgnoresLateAck(t *testing.T) {
	eng, ops := newTable()
	var rec record
	op := ops.Open(9, nil, rec.cb)
	eng.Schedule(testTimeout+time.Second, func() { ops.Ack(op.UID, 9, 2) })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := Result{UID: op.UID, Dst: 9, OK: false, Latency: testTimeout}
	if len(rec.got) != 1 || rec.got[0] != want {
		t.Fatalf("results = %+v, want exactly [%+v]", rec.got, want)
	}
}

func TestRearmGivesFreshUIDAndTimeout(t *testing.T) {
	eng, ops := newTable()
	var rec record
	rearms := 0
	ops.OnStall(func(op *Op) bool {
		if op.Detoured {
			return false
		}
		op.Detoured = true
		rearms++
		ops.Rearm(op)
		return true
	})
	op := ops.Open(5, "cmd", rec.cb)
	first := op.UID
	// The first timeout re-arms at 10 s; an ack for the old UID must not
	// settle the operation, the fresh UID's ack must.
	eng.Schedule(testTimeout+time.Second, func() {
		if op.UID == first {
			t.Errorf("re-arm kept UID %d", first)
		}
		if p := ops.Pending(); len(p) != 1 || p[0].UID != op.UID || p[0].ID != first || !p[0].Detoured {
			t.Errorf("pending after re-arm = %+v", p)
		}
		ops.Ack(first, 5, 1)
	})
	eng.Schedule(testTimeout+2*time.Second, func() { ops.Ack(op.UID, 5, 3) })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if rearms != 1 || op.ID != first || op.App != "cmd" {
		t.Fatalf("rearms=%d id=%d app=%v", rearms, op.ID, op.App)
	}
	want := Result{UID: op.UID, Dst: 5, OK: true, Latency: testTimeout + 2*time.Second, E2EHops: 3, Detoured: true}
	if len(rec.got) != 1 || rec.got[0] != want {
		t.Fatalf("results = %+v, want exactly [%+v]", rec.got, want)
	}
}

func TestRearmedOpTimesOutOnItsFreshTimer(t *testing.T) {
	eng, ops := newTable()
	var rec record
	ops.OnStall(func(op *Op) bool {
		if op.Detoured {
			return false
		}
		op.Detoured = true
		ops.Rearm(op)
		return true
	})
	op := ops.Open(5, nil, rec.cb)
	// Stall re-arms at 2 s, so the fresh timeout fails the op at 12 s.
	eng.Schedule(2*time.Second, func() { ops.Stall(op.ID) })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := Result{UID: op.UID, Dst: 5, OK: false, Latency: 2*time.Second + testTimeout, Detoured: true}
	if len(rec.got) != 1 || rec.got[0] != want {
		t.Fatalf("results = %+v, want exactly [%+v]", rec.got, want)
	}
}

func TestNextUIDSharesTheCounter(t *testing.T) {
	_, ops := newTable()
	a := ops.Open(1, nil, nil).UID
	b := ops.NextUID()
	c := ops.Open(2, nil, nil).UID
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("uids = %d, %d, %d; want 1, 2, 3", a, b, c)
	}
}

func TestPendingSortedByUID(t *testing.T) {
	_, ops := newTable()
	ops.OnStall(func(op *Op) bool { ops.Rearm(op); return true })
	for dst := radio.NodeID(1); dst <= 6; dst++ {
		ops.Open(dst, nil, nil)
	}
	// Re-arming op 2 moves it to the highest UID.
	ops.Stall(2)
	p := ops.Pending()
	var uids, dsts []int
	for _, o := range p {
		uids = append(uids, int(o.UID))
		dsts = append(dsts, int(o.Dst))
	}
	if want := []int{1, 3, 4, 5, 6, 7}; !slices.Equal(uids, want) {
		t.Fatalf("uids = %v, want %v", uids, want)
	}
	if want := []int{1, 3, 4, 5, 6, 2}; !slices.Equal(dsts, want) {
		t.Fatalf("dsts = %v, want %v", dsts, want)
	}
}

func TestEventsPrecedeCallback(t *testing.T) {
	eng, ops := newTable()
	bus := telemetry.NewBus(eng.Now)
	col := telemetry.NewCollector()
	bus.Subscribe(col, telemetry.LayerCore)
	ops.SetTelemetry(bus, 0)
	var kinds []telemetry.Kind
	cb := func(Result) {
		for _, ev := range col.Events() {
			kinds = append(kinds, ev.Kind)
		}
	}
	ok := ops.Open(3, nil, cb)
	ops.Open(4, nil, cb)
	eng.Schedule(time.Second, func() { ops.Ack(ok.UID, 3, 1) })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := []telemetry.Kind{
		telemetry.KindOpIssue, telemetry.KindOpIssue, telemetry.KindOpE2EAck, telemetry.KindOpResult,
		telemetry.KindOpIssue, telemetry.KindOpIssue, telemetry.KindOpE2EAck, telemetry.KindOpResult, telemetry.KindOpResult,
	}
	if !slices.Equal(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}
