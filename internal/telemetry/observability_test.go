package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSampleOpsKeepsWholeSpans(t *testing.T) {
	var events []Event
	for op := uint32(1); op <= 6; op++ {
		events = append(events,
			Event{Layer: LayerCore, Kind: KindOpIssue, Op: op, UID: op},
			Event{Layer: LayerCore, Kind: KindOpForward, Op: op, UID: op},
			Event{Layer: LayerCore, Kind: KindOpResult, Op: op, UID: op, Value: 1},
		)
	}
	events = append(events, Event{Layer: LayerCoding, Kind: KindCodeAssigned, Node: 3, Hops: 1})

	sampled := SampleOps(events, 3)
	ops := map[uint32]int{}
	milestones := 0
	for _, ev := range sampled {
		if ev.Op == 0 {
			milestones++
			continue
		}
		ops[ev.Op]++
	}
	if len(ops) != 2 || ops[3] != 3 || ops[6] != 3 {
		t.Fatalf("1-in-3 sample kept ops %v, want complete spans for ops 3 and 6", ops)
	}
	if milestones != 1 {
		t.Fatalf("op-less events must always survive sampling (got %d)", milestones)
	}
	if spans := BuildOpSpans(sampled); len(spans) != 2 || !spans[0].HasResult {
		t.Fatalf("span building on the sampled stream broke: %d spans", len(spans))
	}
	if got := SampleOps(events, 1); len(got) != len(events) {
		t.Fatalf("n=1 must be a passthrough, got %d/%d events", len(got), len(events))
	}
}

// TestBusEmitNoSubscriberAllocFree pins the disabled-path contract in
// allocation terms: emitting to a bus nobody (or nobody on this layer)
// listens to must not allocate — the single mask test is the whole cost.
func TestBusEmitNoSubscriberAllocFree(t *testing.T) {
	empty := NewBus(func() time.Duration { return 0 })
	otherLayer := NewBus(func() time.Duration { return 0 })
	otherLayer.Subscribe(NewCollector(), LayerSink)
	ev := Event{Layer: LayerCore, Kind: KindOpIssue, Op: 1, UID: 1}
	for name, b := range map[string]*Bus{"empty": empty, "other-layer": otherLayer, "nil": nil} {
		allocs := testing.AllocsPerRun(1000, func() { b.Emit(ev) })
		if allocs != 0 {
			t.Fatalf("Emit on %s bus allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestOpSpanTruncatedByRunEnd covers lifecycles cut off by the end of the
// run: an operation with no terminal result must build a span that says
// so rather than invent an outcome.
func TestOpSpanTruncatedByRunEnd(t *testing.T) {
	events := []Event{
		// Op 1: issued and forwarded, then the run ended — unresolved.
		{At: 10 * time.Second, Layer: LayerCore, Kind: KindOpIssue, Node: 0, Op: 1, UID: 1, Dst: 5},
		{At: 11 * time.Second, Layer: LayerCore, Kind: KindOpForward, Node: 2, Op: 1, UID: 1, Dst: 5},
		// Op 2: consumed at the destination but the e2e ack never made it
		// back before run end — delivered, no result.
		{At: 12 * time.Second, Layer: LayerCore, Kind: KindOpIssue, Node: 0, Op: 2, UID: 2, Dst: 6},
		{At: 14 * time.Second, Layer: LayerCore, Kind: KindOpConsume, Node: 6, Op: 2, UID: 2},
	}
	spans := BuildOpSpans(events)
	if len(spans) != 2 {
		t.Fatalf("built %d spans, want 2", len(spans))
	}
	cut := spans[0]
	if cut.HasResult || cut.Delivered || cut.Dst != 5 || len(cut.Attempts) != 1 {
		t.Fatalf("truncated span = %+v", cut)
	}
	if cut.Latency != 0 {
		t.Fatalf("truncated span invented a latency: %v", cut.Latency)
	}
	noAck := spans[1]
	if noAck.HasResult || !noAck.Delivered {
		t.Fatalf("delivered-no-ack span = %+v", noAck)
	}

	var buf bytes.Buffer
	if err := RenderOpSpans(&buf, events, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "unresolved") {
		t.Fatalf("render of a truncated op must say unresolved:\n%s", out)
	}
	if !strings.Contains(out, "delivered (no e2e result)") {
		t.Fatalf("render of a delivered-no-ack op must say so:\n%s", out)
	}
}
