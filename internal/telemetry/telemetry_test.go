package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"teleadjust/internal/radio"
)

func TestBusNilAndZeroAreDisabled(t *testing.T) {
	var nilBus *Bus
	nilBus.Emit(Event{Layer: LayerCore, Kind: KindOpIssue}) // must not panic
	if nilBus.Wants(LayerCore) {
		t.Fatal("nil bus wants a layer")
	}
	nilBus.Subscribe(NewCollector()) // must not panic

	var zero Bus
	zero.Emit(Event{Layer: LayerCore, Kind: KindOpIssue})
	if zero.Wants(LayerRadio) {
		t.Fatal("zero bus wants a layer")
	}
}

func TestBusLayerMasking(t *testing.T) {
	now := time.Duration(0)
	b := NewBus(func() time.Duration { return now })
	coreOnly := NewCollector()
	all := NewCollector()
	b.Subscribe(coreOnly, LayerCore)
	b.Subscribe(all)

	if !b.Wants(LayerCore) || !b.Wants(LayerRadio) {
		t.Fatal("bus should want core and radio after subscriptions")
	}

	now = 5 * time.Millisecond
	b.Emit(Event{Layer: LayerRadio, Kind: KindRadioTx, Node: 3})
	now = 7 * time.Millisecond
	b.Emit(Event{Layer: LayerCore, Kind: KindOpIssue, Node: 0, Op: 11})

	if coreOnly.Len() != 1 {
		t.Fatalf("core-only sink got %d events, want 1", coreOnly.Len())
	}
	if all.Len() != 2 {
		t.Fatalf("all-layer sink got %d events, want 2", all.Len())
	}
	got := coreOnly.Events()[0]
	if got.At != 7*time.Millisecond || got.Kind != KindOpIssue || got.Op != 11 {
		t.Fatalf("unexpected event: %+v", got)
	}
	// Events are stamped by the bus clock even if the emitter left At set.
	if all.Events()[0].At != 5*time.Millisecond {
		t.Fatalf("radio event stamped %v, want 5ms", all.Events()[0].At)
	}
}

func TestBusWantsRejectsUnsubscribedLayer(t *testing.T) {
	b := NewBus(func() time.Duration { return 0 })
	c := NewCollector()
	b.Subscribe(c, LayerMAC)
	if b.Wants(LayerCore) {
		t.Fatal("bus wants core with only a MAC subscriber")
	}
	b.Emit(Event{Layer: LayerCore, Kind: KindOpIssue})
	if c.Len() != 0 {
		t.Fatalf("MAC sink received a core event")
	}
}

func TestOnLayerEnabled(t *testing.T) {
	b := NewBus(func() time.Duration { return 0 })
	var fired int
	b.OnLayerEnabled(LayerRadio, func() { fired++ })
	if fired != 0 {
		t.Fatal("hook fired before any subscriber")
	}
	b.Subscribe(NewCollector(), LayerCore)
	if fired != 0 {
		t.Fatal("hook fired on an unrelated layer's subscription")
	}
	b.Subscribe(NewCollector(), LayerRadio)
	if fired != 1 {
		t.Fatalf("hook fired %d times after radio subscription, want 1", fired)
	}
	b.Subscribe(NewCollector(), LayerRadio)
	if fired != 1 {
		t.Fatalf("hook re-fired on the second subscriber (%d times)", fired)
	}
	// Already-enabled layers fire immediately.
	b.OnLayerEnabled(LayerRadio, func() { fired++ })
	if fired != 2 {
		t.Fatalf("late hook did not fire immediately (%d)", fired)
	}
	// Nil bus and nil fn are inert.
	var nilBus *Bus
	nilBus.OnLayerEnabled(LayerRadio, func() { fired++ })
	b.OnLayerEnabled(LayerMAC, nil)
	b.Subscribe(NewCollector(), LayerMAC)
	if fired != 2 {
		t.Fatalf("inert hooks fired (%d)", fired)
	}
}

func TestLayerAndKindStrings(t *testing.T) {
	for l := LayerRadio; l < numLayers; l++ {
		if s := l.String(); s == "layer?" || s == "" {
			t.Fatalf("layer %d has no name", l)
		}
	}
	for k := KindRadioTx; k <= KindCodeReported; k++ {
		if s := k.String(); s == "unknown" || s == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Layer(200).String() != "layer?" || Kind(200).String() != "unknown" {
		t.Fatal("fallback names changed")
	}
}

func TestRegistryNilIsSafe(t *testing.T) {
	var r *Registry
	r.GaugeFunc(LayerCore, 1, "z", func() float64 { return 1 })
	if _, ok := r.Gauge(LayerCore, 1, "z"); ok {
		t.Fatal("nil registry returned a gauge")
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	events := []Event{
		{At: time.Millisecond, Layer: LayerCore, Kind: KindOpIssue, Node: 0, Op: 7, UID: 7, Dst: 5},
		{At: 2 * time.Millisecond, Layer: LayerRadio, Kind: KindRadioTx, Node: 0, Seq: 1,
			Frame: &radio.Frame{Src: 0, Dst: 3}},
		{At: 3 * time.Millisecond, Layer: LayerCore, Kind: KindOpResult, Node: 0, Op: 7, Value: 1},
	}
	var b1, b2 bytes.Buffer
	if err := WriteJSONL(&b1, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("JSONL encoding is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"op.issue"`) || !strings.Contains(lines[0], `"layer":"core"`) {
		t.Fatalf("line 0 missing layer/kind: %s", lines[0])
	}
	// The in-memory Frame pointer must not leak into the export.
	if strings.Contains(lines[1], "Payload") || strings.Contains(lines[1], "frame") {
		t.Fatalf("frame leaked into JSONL: %s", lines[1])
	}
}

func TestBuildAndRenderOpSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []Event{
		{At: ms(0), Layer: LayerCore, Kind: KindOpIssue, Node: 0, Op: 9, UID: 9, Dst: 4},
		{At: ms(2), Layer: LayerCore, Kind: KindOpRelayCase, Node: 1, Op: 9, UID: 9, Note: "expected"},
		{At: ms(4), Layer: LayerCore, Kind: KindOpBacktrack, Node: 1, Op: 9, UID: 9},
		{At: ms(6), Layer: LayerCore, Kind: KindOpRescue, Node: 0, Op: 9, UID: 31, Dst: 2},
		{At: ms(9), Layer: LayerCore, Kind: KindOpConsume, Node: 4, Op: 9, UID: 31, Hops: 3},
		{At: ms(12), Layer: LayerCore, Kind: KindOpResult, Node: 0, Op: 9, UID: 31, Value: 1},
		// A second, separate op.
		{At: ms(20), Layer: LayerCore, Kind: KindOpIssue, Node: 0, Op: 10, UID: 10, Dst: 6},
	}
	spans := BuildOpSpans(events)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	sp := spans[0]
	if sp.Op != 9 || sp.Dst != 4 || !sp.Delivered || !sp.HasResult || !sp.ResultOK {
		t.Fatalf("span 0 wrong: %+v", sp)
	}
	if sp.Latency != ms(12) {
		t.Fatalf("latency = %v, want 12ms", sp.Latency)
	}
	if len(sp.Attempts) != 2 {
		t.Fatalf("got %d attempts, want 2 (original + rescue)", len(sp.Attempts))
	}
	if sp.Attempts[0].UID != 9 || sp.Attempts[1].UID != 31 || !sp.Attempts[1].Detour {
		t.Fatalf("attempts wrong: %+v %+v", sp.Attempts[0], sp.Attempts[1])
	}
	if spans[1].HasResult || spans[1].Delivered {
		t.Fatalf("span 1 should be unresolved: %+v", spans[1])
	}

	var out bytes.Buffer
	if err := RenderOpSpans(&out, events, func(s *OpSpan) bool { return s.Dst == 4 }); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"op 9 → node 4", "ok latency=12ms", "attempt uid=9",
		"attempt uid=31 (re-tele detour)", "op.backtrack", "op.consume"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "op 10") {
		t.Fatalf("filter leaked op 10:\n%s", text)
	}

	out.Reset()
	if err := RenderOpSpans(&out, events, func(s *OpSpan) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no matching operation spans") {
		t.Fatalf("empty match should say so, got:\n%s", out.String())
	}
}

type frameIDs struct{ op, uid uint32 }

func (f frameIDs) TelemetryIDs() (uint32, uint32) { return f.op, f.uid }

func TestRadioTap(t *testing.T) {
	b := NewBus(func() time.Duration { return time.Second })
	c := NewCollector()
	b.Subscribe(c, LayerRadio)
	tap := RadioTap(b)

	tap(radio.TraceEvent{
		Kind: radio.TraceTxStart, Node: 2,
		Frame: &radio.Frame{Src: 2, Dst: radio.BroadcastID, Seq: 42, Payload: frameIDs{op: 7, uid: 19}},
	})
	tap(radio.TraceEvent{Kind: radio.TraceRxOK, Node: 3, SINRdB: 12.5,
		Frame: &radio.Frame{Src: 2, Dst: 3, Seq: 43}})

	if c.Len() != 2 {
		t.Fatalf("tap produced %d events, want 2", c.Len())
	}
	tx := c.Events()[0]
	if tx.Kind != KindRadioTx || tx.Node != 2 || tx.Seq != 42 || tx.Op != 7 || tx.UID != 19 {
		t.Fatalf("tx event wrong: %+v", tx)
	}
	rx := c.Events()[1]
	if rx.Kind != KindRadioRxOK || rx.Value != 12.5 || rx.Op != 0 {
		t.Fatalf("rx event wrong: %+v", rx)
	}

	// With nobody listening to the radio layer, the tap is a no-op.
	quiet := NewBus(func() time.Duration { return 0 })
	quiet.Subscribe(NewCollector(), LayerCore)
	RadioTap(quiet)(radio.TraceEvent{Kind: radio.TraceTxStart, Node: 1})
}
